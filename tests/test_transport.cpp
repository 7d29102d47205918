// Tests for the pool's transport: the wire snapshot codec (typed
// round-trips, string refs, raw-bit checksum parity against the
// hexfloat text path, fuzzed decode robustness), every CRC-32 path's
// equivalence with the bytewise reference, and the pool-level paths records take over the CRC-framed
// pipe (payloads larger than the pipe buffer, affinity dispatch).
//
// OpenMP note: pool tests fork workers from this process, so the fixture
// pins OpenMP to one thread (a forked copy of a live libgomp thread pool
// deadlocks).
#include <gtest/gtest.h>
#include <omp.h>
#include <unistd.h>

#include <array>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "instrument/profile.hpp"
#include "instrument/trace_sink.hpp"
#include "instrument/wire_codec.hpp"
#include "sandbox/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/wire.hpp"
#include "util/crc32.hpp"

namespace {

using namespace rperf;
using sandbox::Disposition;
using sandbox::Job;
using sandbox::JobFailure;
using sandbox::PoolClient;
using sandbox::PoolConfig;
using sandbox::PoolOutcome;
using sandbox::WorkerPool;

/// Deterministic 64-bit LCG for reproducible pseudo-random test data.
std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s;
}

std::string pattern_bytes(std::uint64_t seed, std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(lcg(seed) >> 56);
  }
  return out;
}

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    omp_set_num_threads(1);
    sandbox::pool_testing::fail_next_forks(0);
  }
  void TearDown() override { sandbox::pool_testing::fail_next_forks(0); }
};

// ----------------------------------------------------------- wire codec

TEST_F(TransportTest, WireScalarsRoundTrip) {
  wire::Writer w;
  w.begin_blob();
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(6.02214076e23);
  w.put_f80(1.0L / 3.0L);
  w.put_bytes(std::string("raw\0bytes", 9));
  const std::string blob = w.take();

  wire::Reader r(blob);
  r.expect_blob();
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f64(), 6.02214076e23);
  EXPECT_EQ(r.get_f80(), 1.0L / 3.0L);
  EXPECT_EQ(r.get_bytes(), std::string("raw\0bytes", 9));
  EXPECT_EQ(r.remaining(), 0u);
}

/// The value-carrying bytes of a long double (x87 80-bit extended stores
/// 10 significant bytes in 12/16-byte storage; the padding is
/// indeterminate and must not be compared).
std::array<unsigned char, sizeof(long double)> ld_bits(long double v) {
  std::array<unsigned char, sizeof(long double)> a{};
  std::memcpy(a.data(), &v, sizeof(v));
  return a;
}
constexpr std::size_t kLdSignificant =
    (sizeof(long double) == 16 || sizeof(long double) == 12)
        ? 10
        : sizeof(long double);

TEST_F(TransportTest, ChecksumRawBitsMatchHexfloatBitForBit) {
  // The wire's raw-bit checksum encoding and the hexfloat text that
  // progress.jsonl carries must reproduce the identical long-double bit
  // pattern for every representable value a kernel checksum can take.
  const long double cases[] = {
      0.0L,
      -0.0L,
      1.0L,
      1.0L / 3.0L,
      -12345.6789L,
      3.0e27L + 0.125L,          // large accumulated checksum
      LDBL_EPSILON,
      LDBL_MIN,
      LDBL_MAX,
      LDBL_TRUE_MIN,             // denormal
      9007199254740993.0L,       // first integer a double cannot hold
  };
  for (const long double v : cases) {
    // Text path: C99 hexfloat printf -> strtold.
    const long double via_hex =
        sandbox::checksum_from_hex(sandbox::checksum_to_hex(v));
    // Wire path: raw bits through the codec.
    wire::Writer w;
    w.put_f80(v);
    wire::Reader r(w.buffer());
    const long double via_wire = r.get_f80();

    const auto want = ld_bits(v);
    EXPECT_EQ(std::memcmp(ld_bits(via_hex).data(), want.data(),
                          kLdSignificant),
              0)
        << "hexfloat round-trip changed bits of " << static_cast<double>(v);
    EXPECT_EQ(std::memcmp(ld_bits(via_wire).data(), want.data(),
                          kLdSignificant),
              0)
        << "wire round-trip changed bits of " << static_cast<double>(v);
    EXPECT_EQ(std::signbit(via_wire), std::signbit(v));
  }
}

TEST_F(TransportTest, WireStringsUseGlobalInlineAndLocalRefs) {
  // Every blob carries its own strings: no process-global dictionary, so
  // the first use of any string is an inline definition.
  wire::Writer w;
  const std::string first = "transport-test-first";
  w.put_str(first);                       // inline def: 4 + 4 + len
  const std::size_t after_first = w.buffer().size();
  EXPECT_EQ(after_first, 8u + first.size());
  const std::string novel = "transport-test-novel";
  w.put_str(novel);                       // inline def: 4 + 4 + len
  const std::size_t after_def = w.buffer().size();
  EXPECT_EQ(after_def - after_first, 8u + novel.size());
  w.put_str(novel);                       // blob-local ref: 4 bytes
  w.put_str(first);                       // blob-local ref: 4 bytes
  EXPECT_EQ(w.buffer().size() - after_def, 8u);

  wire::Reader r(w.buffer());
  EXPECT_EQ(r.get_str(), first);
  EXPECT_EQ(r.get_str(), novel);
  EXPECT_EQ(r.get_str(), novel);
  EXPECT_EQ(r.get_str(), first);

  // A global-dictionary ref (high bit clear, not an inline definition)
  // names nothing any more: decode fails closed, even for id 0.
  wire::Writer g;
  g.put_u32(0);
  wire::Reader rg(g.buffer());
  EXPECT_THROW((void)rg.get_str(), wire::Error);
}

TEST_F(TransportTest, WireDecodeFailsClosedOnViolations) {
  // Out-of-range dictionary ref.
  {
    wire::Writer w;
    w.put_u32(0x7FFFFFF0u);  // far past any interned id, high bit clear
    wire::Reader r(w.buffer());
    EXPECT_THROW((void)r.get_str(), wire::Error);
  }
  // Out-of-range blob-local ref.
  {
    wire::Writer w;
    w.put_u32(wire::kLocalBit | 3u);  // no locals defined yet
    wire::Reader r(w.buffer());
    EXPECT_THROW((void)r.get_str(), wire::Error);
  }
  // Truncated payload.
  {
    wire::Writer w;
    w.put_u64(42);
    wire::Reader r(w.buffer().data(), 3);
    EXPECT_THROW((void)r.get_u64(), wire::Error);
  }
  // Wrong long-double width byte.
  {
    wire::Writer w;
    w.put_u8(3);  // claims a 3-byte long double
    w.put_u64(0);
    wire::Reader r(w.buffer());
    EXPECT_THROW((void)r.get_f80(), wire::Error);
  }
  // Bad blob header.
  {
    const std::string junk = "{\"not\":\"wire\"}";
    wire::Reader r(junk);
    EXPECT_THROW(r.expect_blob(), wire::Error);
  }
  // Element count that cannot fit the remaining bytes.
  {
    wire::Writer w;
    w.put_u32(0xFFFFFFF0u);  // "this many profile roots follow"
    wire::Reader r(w.buffer());
    const std::uint32_t count = r.get_u32();
    EXPECT_THROW(r.check_count(count, 24), wire::Error);
  }
}

cali::Profile sample_profile() {
  cali::Profile p;
  p.metadata["suite"] = "rajaperf-repro";
  p.metadata["variant"] = "Base_Seq";
  cali::ProfileNode root;
  root.name = "Basic_DAXPY";
  root.time_sec = 0.125;
  root.visit_count = 3;
  root.metrics["flops"] = 2.0e9;
  root.metrics["bytes_read"] = 1.5e10;
  cali::ProfileNode child;
  child.name = "checksum";
  child.time_sec = 0.007;
  child.visit_count = 1;
  root.children.push_back(child);
  p.roots.push_back(root);
  return p;
}

TEST_F(TransportTest, ProfileRoundTripsThroughWire) {
  const cali::Profile p = sample_profile();
  wire::Writer w;
  w.begin_blob();
  cali::profile_to_wire(p, w);
  wire::Reader r(w.buffer());
  r.expect_blob();
  const cali::Profile q = cali::profile_from_wire(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(q.metadata, p.metadata);
  ASSERT_EQ(q.roots.size(), 1u);
  EXPECT_EQ(q.roots[0].name, "Basic_DAXPY");
  EXPECT_EQ(q.roots[0].time_sec, 0.125);
  EXPECT_EQ(q.roots[0].visit_count, 3u);
  EXPECT_EQ(q.roots[0].metrics, p.roots[0].metrics);
  ASSERT_EQ(q.roots[0].children.size(), 1u);
  EXPECT_EQ(q.roots[0].children[0].name, "checksum");
  EXPECT_EQ(q.roots[0].children[0].time_sec, 0.007);
}

TEST_F(TransportTest, TraceDataRoundTripsThroughWire) {
  cali::TraceData t;
  t.pid = 4242;
  t.process_name = "rperf-pool-worker";
  t.clock_offset_sec = 1.5;
  t.names = {"Basic_DAXPY", "pool_hits"};
  cali::TraceRecord span;
  span.name = 0;
  span.tid = 1;
  span.kind = cali::TraceRecord::Kind::Span;
  span.depth = 2;
  span.t0 = 0.25;
  span.t1 = 0.75;
  t.records.push_back(span);
  cali::TraceRecord counter;
  counter.name = 1;
  counter.kind = cali::TraceRecord::Kind::Counter;
  counter.t0 = 0.5;
  counter.value = 17.0;
  t.records.push_back(counter);
  cali::RegionThreadStats st;
  st.instances = 4;
  st.sum_max_sec = 0.4;
  st.sum_mean_sec = 0.3;
  st.max_threads = 8;
  t.region_stats["Basic_DAXPY"] = st;
  t.dropped = 9;
  t.overhead_sec = 0.001;

  wire::Writer w;
  w.begin_blob();
  cali::trace_to_wire(t, w);
  wire::Reader r(w.buffer());
  r.expect_blob();
  const cali::TraceData u = cali::trace_from_wire(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(u.pid, 4242);
  EXPECT_EQ(u.process_name, "rperf-pool-worker");
  EXPECT_EQ(u.clock_offset_sec, 1.5);
  EXPECT_EQ(u.names, t.names);
  ASSERT_EQ(u.records.size(), 2u);
  EXPECT_EQ(u.records[0].kind, cali::TraceRecord::Kind::Span);
  EXPECT_EQ(u.records[0].tid, 1u);
  EXPECT_EQ(u.records[0].depth, 2);
  EXPECT_EQ(u.records[0].t1, 0.75);
  EXPECT_EQ(u.records[1].kind, cali::TraceRecord::Kind::Counter);
  EXPECT_EQ(u.records[1].value, 17.0);
  ASSERT_EQ(u.region_stats.count("Basic_DAXPY"), 1u);
  EXPECT_EQ(u.region_stats.at("Basic_DAXPY").instances, 4u);
  EXPECT_EQ(u.region_stats.at("Basic_DAXPY").max_threads, 8);
  EXPECT_EQ(u.dropped, 9u);
  EXPECT_EQ(u.overhead_sec, 0.001);
}

TEST_F(TransportTest, FuzzedBlobsNeverEscapeTheDecoder) {
  // Flip random bytes in a valid profile blob: every mutation must either
  // decode (to garbage values — acceptable) or throw wire::Error. Nothing
  // else may escape; no out-of-bounds read may occur (ASan-checked when
  // the sanitize preset runs this suite).
  wire::Writer w;
  w.begin_blob();
  cali::profile_to_wire(sample_profile(), w);
  const std::string pristine = w.buffer();

  std::uint64_t seed = 0xFEEDFACE;
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob = pristine;
    const int flips = 1 + static_cast<int>(lcg(seed) % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = lcg(seed) % blob.size();
      blob[pos] = static_cast<char>(blob[pos] ^ (1u << (lcg(seed) % 8)));
    }
    try {
      wire::Reader r(blob);
      r.expect_blob();
      (void)cali::profile_from_wire(r);
      ++decoded;
    } catch (const wire::Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, 2000);
  EXPECT_GT(rejected, 0) << "corruption was never detected — guards dead?";
}

TEST_F(TransportTest, TruncatedBlobsNeverEscapeTheDecoder) {
  wire::Writer w;
  w.begin_blob();
  cali::profile_to_wire(sample_profile(), w);
  const std::string pristine = w.buffer();
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    try {
      wire::Reader r(pristine.data(), len);
      r.expect_blob();
      (void)cali::profile_from_wire(r);
    } catch (const wire::Error&) {
      // Expected for nearly every prefix.
    }
  }
}

// --------------------------------------------------------------- crc-32

TEST_F(TransportTest, SliceBy8Crc32MatchesBytewiseReference) {
  // Every CRC-32 path against the byte-at-a-time reference: the table
  // path called directly (so it stays covered on hosts that take the
  // fold), the carry-less fold where this CPU has it, and the dispatched
  // util::crc32 every layer calls. Every length 0..1024 at every alignment
  // 0..15 crosses the fold's 64-byte entry, its 16-byte blocks and each
  // tail length; 65537 bytes runs many 64-byte folds.
  struct Path {
    const char* name;
    std::uint32_t (*fn)(const void*, std::size_t);
  };
  std::vector<Path> paths = {{"slice-by-8", &util::crc32_slice8},
                             {"dispatched", &util::crc32}};
#if RPERF_CRC32_CLMUL
  if (util::crc32_clmul_available()) {
    paths.push_back({"clmul", &util::crc32_clmul});
  }
#endif
  EXPECT_EQ(util::crc32_bytewise("123456789", 9), 0xCBF43926u);

  const std::string block = pattern_bytes(31337, 65537 + 16);
  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.fn("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(path.fn(block.data(), 65537),
              util::crc32_bytewise(block.data(), 65537));
    std::size_t mismatches = 0;
    std::string first;
    for (std::size_t off = 0; off < 16; ++off) {
      for (std::size_t len = 0; len <= 1024; ++len) {
        const char* p = block.data() + off;
        if (path.fn(p, len) != util::crc32_bytewise(p, len) &&
            mismatches++ == 0) {
          first = "length " + std::to_string(len) + " at alignment " +
                  std::to_string(off);
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "first: " << first;
  }
}

// ------------------------------------------------- pool-level frame path

TEST_F(TransportTest, LargePayloadCrossesTheFramePathIntact) {
  // A 1 MiB result is 16x the 64 KiB pipe buffer: the worker's write
  // blocks until the supervisor's poll loop drains the pipe, so the frame
  // arrives over many reads, and its CRC must still check out at the end.
  PoolConfig cfg;
  cfg.workers = 1;
  const std::string big = pattern_bytes(777, 1u << 20);
  PoolClient client;
  client.run_job = [&](const std::string&) { return big; };
  std::string got;
  client.on_result = [&](const Job&, const std::string& r) {
    got = r;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };
  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 1) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });
  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(got, big);
  EXPECT_GE(pool.stats().ring_payload_bytes, big.size());
  EXPECT_EQ(pool.stats().corrupt_frames, 0u);
}

TEST_F(TransportTest, AffinityDispatchPartitionsKeysAcrossWorkers) {
  // Jobs carry two affinity keys, four jobs each. The claim rule must
  // keep each key on a single worker (warm state is built once per pool,
  // not once per worker) and count the warm re-dispatches.
  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  constexpr std::uint64_t kKeyA = 0xA1;
  constexpr std::uint64_t kKeyB = 0xB1;
  client.before_dispatch = [](Job& job) { job.payload = "q"; };
  client.run_job = [](const std::string&) {
    return std::to_string(getpid());
  };
  std::vector<std::string> pids(8);
  client.on_result = [&](const Job& job, const std::string& result) {
    pids[job.id] = result;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };
  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= pids.size()) return std::nullopt;
    Job j;
    j.id = next;
    j.affinity = next < 4 ? kKeyA : kKeyB;
    ++next;
    return j;
  });
  EXPECT_EQ(out, PoolOutcome::Completed);
  // Every key ran on exactly one worker.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(pids[i], pids[0]) << "key A split across workers";
    EXPECT_EQ(pids[4 + i], pids[4]) << "key B split across workers";
  }
  // Each key's first dispatch is cold; the remaining three per key must
  // be warm-worker (pass 1) hits.
  EXPECT_EQ(pool.stats().affinity_hits, 6u);
}

}  // namespace
