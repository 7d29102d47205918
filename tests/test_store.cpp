// Tests for rperf::store, the crash-consistent profile store: bit-exact
// payload round-trips (long-double checksum bits included), content
// addressing, the commit protocol (uncommitted tails invisible, stale or
// relocated markers commit nothing, duplicate seqs fail closed), the
// crash matrix (the writer's journal cut at 50+ randomized byte offsets
// must recover exactly the committed prefix, bit-identically, with the
// torn tail quarantined), fork+SIGKILL recovery through the flock'd
// writer lock, decoder fuzzing (bit flips, truncation, appended
// garbage), every store-I/O fault kind of the injector grammar
// (shortwrite/enospc/fsyncfail/tornseg on both the journal and the
// segment-publication classes), the fsck status/repair contract, and
// the writer's catalog-depth open: it still refuses a bit flip in a
// cell, profile or marker of a listed sealed segment, and the journal it
// truncates is decoded in full, so an undecodable journal record is
// quarantined from there on.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "instrument/profile.hpp"
#include "sandbox/wire.hpp"
#include "store/store.hpp"
#include "util/crc32.hpp"
#include "util/fnv1a.hpp"

namespace {

using namespace rperf;
namespace fs = std::filesystem;

// Significant bytes of a long double for bit-identity checks: x87
// extended precision stores 10 value bytes inside a 16-byte object
// whose tail is padding that value copies (fstpt) do not write.
constexpr std::size_t kChecksumSigBytes =
    sizeof(long double) >= 10 ? 10 : sizeof(long double);

bool checksum_bits_equal(long double a, long double b) {
  return std::memcmp(&a, &b, kChecksumSigBytes) == 0;
}

store::CellRecord make_cell(std::size_t i) {
  store::CellRecord c;
  c.kernel = "Kernel_" + std::to_string(i);
  c.variant = (i % 2) ? "RAJA_OpenMP" : "Base_Seq";
  c.tuning = "default";
  c.status = "Passed";
  c.time_per_rep_sec = 1e-6 * static_cast<double>(i + 1);
  c.checksum = (1.0L / 3.0L) * static_cast<long double>(i + 1) +
               std::numeric_limits<long double>::denorm_min() *
                   static_cast<long double>(i);
  c.problem_size = static_cast<std::int64_t>(1000 + i);
  c.reps = static_cast<std::int64_t>(10 + i);
  c.attempts = static_cast<std::uint32_t>(1 + i % 3);
  return c;
}

void expect_cells_equal(const store::CellRecord& a, const store::CellRecord& b,
                        const std::string& where) {
  EXPECT_EQ(a.kernel, b.kernel) << where;
  EXPECT_EQ(a.variant, b.variant) << where;
  EXPECT_EQ(a.tuning, b.tuning) << where;
  EXPECT_EQ(a.status, b.status) << where;
  EXPECT_EQ(a.time_per_rep_sec, b.time_per_rep_sec) << where;
  EXPECT_TRUE(checksum_bits_equal(a.checksum, b.checksum)) << where;
  EXPECT_EQ(a.problem_size, b.problem_size) << where;
  EXPECT_EQ(a.reps, b.reps) << where;
  EXPECT_EQ(a.attempts, b.attempts) << where;
  EXPECT_EQ(a.error, b.error) << where;
}

std::map<std::string, std::string> small_config(const std::string& tag) {
  return {{"suite", "store-test"}, {"tag", tag}, {"size_factor", "0.01"}};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// A RunHeader payload for `config`, as StoreWriter::begin_run writes it.
std::string header_payload(const std::map<std::string, std::string>& config) {
  wire::Writer w;
  w.put_bytes(store::run_config_id(config));
  w.put_u32(static_cast<std::uint32_t>(config.size()));
  for (const auto& [k, v] : config) {
    w.put_bytes(k);
    w.put_bytes(v);
  }
  return w.take();
}

std::string marker_payload(std::uint64_t covers, bool final_flag,
                           const std::string& run_id) {
  wire::Writer w;
  w.put_u64(covers);
  w.put_u8(final_flag ? 1 : 0);
  w.put_bytes(run_id);
  return w.take();
}

/// A ProfileRegion payload that frames and CRC-checks like any other but
/// that no decoder accepts: it claims metadata entries it does not hold.
std::string undecodable_profile_payload() {
  wire::Writer w;
  w.put_bytes("Base_Seq");
  w.put_bytes("default");
  w.put_u32(1000);
  return w.take();
}

/// Offset and type of every record frame in a store file image.
std::vector<std::pair<std::size_t, store::RecordType>> frames_of(
    const std::string& data) {
  std::vector<std::pair<std::size_t, store::RecordType>> frames;
  std::size_t pos = sizeof(store::kFileMagic);
  while (pos + store::kFrameBytes + store::kMinBody <= data.size()) {
    std::uint32_t len;
    std::memcpy(&len, data.data() + pos + 4, 4);
    frames.emplace_back(pos, static_cast<store::RecordType>(
                                 data[pos + store::kFrameBytes + 8]));
    pos += store::kFrameBytes + len;
  }
  return frames;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::injector().reset();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = (fs::temp_directory_path() /
             (std::string("rperf_store_") + info->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    faults::injector().reset();
    fs::remove_all(base_);
  }

  std::string base_;
};

// ---------------------------------------------------------------------------
// Payload codecs and content addressing

TEST_F(StoreTest, CellPayloadRoundTripBitExact) {
  std::vector<store::CellRecord> cells;
  for (std::size_t i = 0; i < 8; ++i) cells.push_back(make_cell(i));
  // Hostile checksum bit patterns: NaN, infinities, signed zero,
  // denormal — all must survive with their exact bits.
  store::CellRecord weird = make_cell(99);
  weird.checksum = std::numeric_limits<long double>::quiet_NaN();
  weird.error = "checksum is NaN";
  weird.status = "ChecksumInvalid";
  cells.push_back(weird);
  weird.checksum = -std::numeric_limits<long double>::infinity();
  cells.push_back(weird);
  weird.checksum = -0.0L;
  cells.push_back(weird);
  weird.checksum = std::numeric_limits<long double>::denorm_min();
  cells.push_back(weird);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string payload = store::encode_cell_payload(cells[i]);
    const store::CellRecord back = store::decode_cell_payload(payload);
    expect_cells_equal(cells[i], back, "cell " + std::to_string(i));
  }
}

TEST_F(StoreTest, RunConfigIdIsContentAddress) {
  const auto id1 = store::run_config_id(small_config("a"));
  EXPECT_EQ(id1.size(), 16u);
  EXPECT_EQ(id1.find_first_not_of("0123456789abcdef"), std::string::npos);
  // Deterministic, and sensitive to every value.
  EXPECT_EQ(id1, store::run_config_id(small_config("a")));
  EXPECT_NE(id1, store::run_config_id(small_config("b")));
  auto cfg = small_config("a");
  cfg["extra"] = "1";
  EXPECT_NE(id1, store::run_config_id(cfg));
}

// Run ids are on-disk content addresses: a store written by an earlier
// build must keep resolving its runs, so the id of a fixed config is
// pinned to the value the format has always produced.
TEST_F(StoreTest, RunConfigIdIsStableAcrossBuilds) {
  const std::map<std::string, std::string> cfg = {
      {"groups", "Stream,Basic"},
      {"isolate", "none"},
      {"size_factor", "0.01"},
      {"suite", "rajaperf-repro"},
      {"variants", "Base_Seq,RAJA_OpenMP"}};
  EXPECT_EQ(store::run_config_id(cfg), "9d57e1d34a4a8c28");
  EXPECT_EQ(store::run_config_id({}), "cbf29ce484222325");
}

// MANIFEST.rps is on-disk format too: a ledger written by an earlier build
// must open without its manifest being rewritten. A fixed three-run
// ledger, whose cells come in runs of one kernel name as a sweep writes
// them, pins the file to the bytes the format has always produced; a
// reopen must then leave the file itself in place.
TEST_F(StoreTest, ManifestBytesAreStableAcrossBuilds) {
  {
    store::StoreWriter w(base_);
    for (int run = 0; run < 3; ++run) {
      w.begin_run(small_config("manifest-" + std::to_string(run)));
      for (std::size_t i = 0; i < 12; ++i) {
        store::CellRecord cell = make_cell(i);
        cell.kernel = "Apps_MANIFEST_PIN_" + std::to_string(run + i / 4);
        w.add_cell(cell);
        if (i % 3 == 2) w.commit();
      }
      w.add_trace_summary({{"cells", 12.0}});
      w.finish_run();
    }
  }
  const std::string path = base_ + "/" + store::kManifestName;
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 377u);
  EXPECT_EQ(util::crc32_bytewise(bytes.data(), bytes.size()), 0xb2f003f4u);

  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  { store::StoreWriter reopened(base_); }
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino) << "the writer rewrote the manifest";
  EXPECT_EQ(slurp(path), bytes);
}

// The shared hash behind run ids, bloom filters and affinity keys matches
// the published FNV-1a-64 test vectors.
TEST(Fnv1a64, MatchesReferenceVectors) {
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Chaining hashes the concatenation.
  EXPECT_EQ(util::fnv1a64("bar", util::fnv1a64("foo")),
            util::fnv1a64("foobar"));
}

// ---------------------------------------------------------------------------
// Write / read round trip

TEST_F(StoreTest, WriteReadRoundTrip) {
  std::vector<store::CellRecord> cells;
  std::string run_id;
  {
    store::StoreWriter w(base_);
    run_id = w.begin_run(small_config("roundtrip"));
    EXPECT_EQ(run_id, store::run_config_id(small_config("roundtrip")));
    for (std::size_t i = 0; i < 5; ++i) {
      cells.push_back(make_cell(i));
      w.add_cell(cells.back());
    }
    w.commit();
    cali::Profile prof;
    prof.metadata["variant"] = "Base_Seq";
    cali::ProfileNode node;
    node.name = "SELFCONTAINED_REGION_XYZ";
    node.time_sec = 1.5;
    node.visit_count = 3;
    prof.roots.push_back(node);
    w.add_profile("Base_Seq", "default", prof);
    w.add_trace_summary({{"wall_sec", 2.5}, {"cells", 5.0}});
    w.finish_run();
    EXPECT_EQ(w.cells_committed(), 5u);
  }
  // Sealed into the first segment; payloads must be self-contained (the
  // literal region string lives in the file, not a process dictionary id).
  EXPECT_TRUE(fs::exists(base_ + "/seg-000000.rps"));
  EXPECT_NE(slurp(base_ + "/seg-000000.rps").find("SELFCONTAINED_REGION_XYZ"),
            std::string::npos);

  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_EQ(r.segment_count(), 1u);
  EXPECT_EQ(r.journal_tail_bytes(), 0u);
  const store::StoredRun& run = r.runs()[0];
  EXPECT_EQ(run.run_id, run_id);
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.file, "seg-000000.rps");
  EXPECT_EQ(run.config, small_config("roundtrip"));
  ASSERT_EQ(run.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_cells_equal(cells[i], run.cells[i], "cell " + std::to_string(i));
  }
  ASSERT_EQ(run.profiles.size(), 1u);
  EXPECT_EQ(run.profiles[0].variant, "Base_Seq");
  const auto* node = run.profiles[0].profile.find("SELFCONTAINED_REGION_XYZ");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->time_sec, 1.5);
  EXPECT_EQ(node->visit_count, 3u);
  EXPECT_EQ(run.trace_summary.at("cells"), 5.0);
  // find(): empty prefix = latest; a prefix of the id resolves it.
  EXPECT_EQ(r.find("")->run_id, run_id);
  EXPECT_EQ(r.find(run_id.substr(0, 6))->run_id, run_id);
  EXPECT_EQ(r.find("zzzz"), nullptr);
}

TEST_F(StoreTest, ReaderAndFsckRejectNonStoreDir) {
  EXPECT_THROW(store::StoreReader r(base_), store::StoreError);
  EXPECT_THROW((void)store::fsck(base_, false), store::StoreError);
}

TEST_F(StoreTest, WriterLockIsExclusive) {
  store::StoreWriter a(base_);
  EXPECT_THROW(store::StoreWriter b(base_), store::StoreError);
  // --repair needs the writer lock too (a live writer's in-flight
  // records look like a torn tail); read-only fsck does not.
  a.begin_run(small_config("lock"));
  a.add_cell(make_cell(0));  // uncommitted: a "tail" while a is alive
  EXPECT_EQ(store::fsck(base_, false).status,
            store::FsckStatus::Recoverable);
  EXPECT_THROW((void)store::fsck(base_, true), store::StoreError);
}

// ---------------------------------------------------------------------------
// Commit protocol

TEST_F(StoreTest, UncommittedRecordsAreInvisibleAndQuarantined) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("tail"));
    w.add_cell(make_cell(0));
    w.add_cell(make_cell(1));
    w.commit();
    w.add_cell(make_cell(2));  // appended, never committed
    w.add_cell(make_cell(3));
  }
  {
    store::StoreReader r(base_);
    ASSERT_EQ(r.runs().size(), 1u);
    EXPECT_FALSE(r.runs()[0].complete);
    EXPECT_EQ(r.runs()[0].cells.size(), 2u);
    EXPECT_GT(r.journal_tail_bytes(), 0u);
  }
  // A reopening writer quarantines + truncates the tail; nothing is
  // silently dropped and the committed prefix is untouched.
  {
    store::StoreWriter w(base_);
    EXPECT_GT(w.recovery().quarantined_bytes, 0u);
    ASSERT_FALSE(w.recovery().quarantine_file.empty());
    EXPECT_TRUE(fs::exists(w.recovery().quarantine_file));
    EXPECT_EQ(fs::file_size(w.recovery().quarantine_file),
              w.recovery().quarantined_bytes);
  }
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_EQ(r.runs()[0].cells.size(), 2u);
  EXPECT_EQ(r.journal_tail_bytes(), 0u);
  expect_cells_equal(make_cell(1), r.runs()[0].cells[1], "cell 1");
}

TEST_F(StoreTest, StaleOrForeignMarkerCommitsNothing) {
  const auto cfg = small_config("stale");
  const std::string run_id = store::run_config_id(cfg);
  auto header_payload = [&]() {
    wire::Writer w;
    w.set_self_contained(true);
    w.put_bytes(run_id);
    w.put_u32(static_cast<std::uint32_t>(cfg.size()));
    for (const auto& [k, v] : cfg) {
      w.put_bytes(k);
      w.put_bytes(v);
    }
    return w.take();
  };
  auto marker_payload = [&](std::uint64_t covers, bool final_flag,
                            const std::string& id) {
    wire::Writer w;
    w.set_self_contained(true);
    w.put_u64(covers);
    w.put_u8(final_flag ? 1 : 0);
    w.put_bytes(id);
    return w.take();
  };
  using store::RecordType;
  std::string journal(store::kFileMagic, sizeof(store::kFileMagic));
  journal += store::encode_record(RecordType::RunHeader, 1, header_payload());
  journal += store::encode_record(RecordType::CommitMarker, 2,
                                  marker_payload(1, false, run_id));
  const std::size_t committed_prefix = journal.size();
  // A cell followed by a *stale* marker (covers_seq pointing back at the
  // header instead of the cell): structurally valid bytes, but the
  // marker must commit nothing.
  journal += store::encode_record(RecordType::CellResult, 3,
                                  store::encode_cell_payload(make_cell(0)));
  journal += store::encode_record(RecordType::CommitMarker, 4,
                                  marker_payload(1, false, run_id));
  spit(base_ + "/journal.rps", journal);
  {
    store::StoreReader r(base_);
    ASSERT_EQ(r.runs().size(), 1u);
    EXPECT_EQ(r.runs()[0].cells.size(), 0u);
    EXPECT_EQ(r.journal_tail_bytes(), journal.size() - committed_prefix);
  }
  // A marker with the right covers_seq but a *foreign* run id (a marker
  // relocated from another store) must also commit nothing.
  std::string journal2(store::kFileMagic, sizeof(store::kFileMagic));
  journal2 += store::encode_record(RecordType::RunHeader, 1, header_payload());
  journal2 += store::encode_record(RecordType::CommitMarker, 2,
                                   marker_payload(1, false, run_id));
  journal2 += store::encode_record(RecordType::CellResult, 3,
                                   store::encode_cell_payload(make_cell(0)));
  journal2 += store::encode_record(RecordType::CommitMarker, 4,
                                   marker_payload(3, false,
                                                  "deadbeefdeadbeef"));
  spit(base_ + "/journal.rps", journal2);
  store::StoreReader r2(base_);
  ASSERT_EQ(r2.runs().size(), 1u);
  EXPECT_EQ(r2.runs()[0].cells.size(), 0u);
  EXPECT_GT(r2.journal_tail_bytes(), 0u);
}

TEST_F(StoreTest, DuplicatedSequenceFailsClosed) {
  std::vector<store::CellRecord> cells;
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("dup"));
    for (std::size_t i = 0; i < 3; ++i) {
      cells.push_back(make_cell(i));
      w.add_cell(cells.back());
      w.commit();
    }
  }
  const std::string journal = slurp(base_ + "/journal.rps");
  // Replay the *last full record* at the end of the file: its CRC checks
  // out, but the duplicated seq is a sequence violation — the scan must
  // stop there, keeping every previously committed cell.
  std::size_t pos = sizeof(store::kFileMagic);
  std::size_t last_start = pos;
  while (pos < journal.size()) {
    std::uint32_t len;
    std::memcpy(&len, journal.data() + pos + 4, 4);
    last_start = pos;
    pos += 12 + len;
  }
  spit(base_ + "/journal.rps", journal + journal.substr(last_start));
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  ASSERT_EQ(r.runs()[0].cells.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_cells_equal(cells[i], r.runs()[0].cells[i],
                       "cell " + std::to_string(i));
  }
  EXPECT_GT(r.journal_tail_bytes(), 0u);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Recoverable);
}

TEST_F(StoreTest, MultipleRunsAcrossSegmentsAndJournal) {
  std::string id1, id2, id3;
  {
    store::StoreWriter w(base_);
    id1 = w.begin_run(small_config("one"));
    w.add_cell(make_cell(0));
    w.finish_run();  // -> seg-000000.rps
    id2 = w.begin_run(small_config("two"));
    w.add_cell(make_cell(1));
    w.add_cell(make_cell(2));
    w.finish_run();  // -> seg-000001.rps
    id3 = w.begin_run(small_config("three"));
    w.add_cell(make_cell(3));
    w.commit();  // stays in the journal, incomplete
  }
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 3u);
  EXPECT_EQ(r.segment_count(), 2u);
  EXPECT_EQ(r.runs()[0].run_id, id1);
  EXPECT_TRUE(r.runs()[0].complete);
  EXPECT_EQ(r.runs()[1].run_id, id2);
  EXPECT_EQ(r.runs()[1].cells.size(), 2u);
  EXPECT_EQ(r.runs()[2].run_id, id3);
  EXPECT_FALSE(r.runs()[2].complete);
  EXPECT_EQ(r.find("")->run_id, id3);  // latest
  const auto rep = store::fsck(base_, false);
  EXPECT_EQ(rep.status, store::FsckStatus::Clean);
  EXPECT_EQ(rep.runs, 3u);
  EXPECT_EQ(rep.complete_runs, 2u);
  EXPECT_EQ(rep.committed_cells, 4u);
}

// ---------------------------------------------------------------------------
// Crash matrix: the journal cut at every kind of byte offset

TEST_F(StoreTest, CrashMatrixRecoversCommittedPrefixBitIdentically) {
  // Build a journal with known commit boundaries: (bytes, cells) after
  // the header commit and after each of 24 cell commits.
  const std::string src = base_ + "/src";
  const auto cfg = small_config("matrix");
  std::vector<store::CellRecord> cells;
  std::vector<std::pair<std::uint64_t, std::size_t>> boundaries;
  {
    store::StoreWriter w(src);
    w.begin_run(cfg);
    boundaries.emplace_back(fs::file_size(src + "/journal.rps"), 0u);
    for (std::size_t i = 0; i < 24; ++i) {
      cells.push_back(make_cell(i));
      w.add_cell(cells.back());
      w.commit();
      boundaries.emplace_back(fs::file_size(src + "/journal.rps"), i + 1);
    }
  }
  const std::string journal = slurp(src + "/journal.rps");
  ASSERT_EQ(journal.size(), boundaries.back().first);

  // >= 50 cut points: every commit boundary, each boundary +/- 1 byte
  // (the torn-marker edges), and 60 seeded random offsets.
  std::vector<std::uint64_t> offsets;
  for (const auto& [bytes, n] : boundaries) {
    offsets.push_back(bytes);
    offsets.push_back(bytes - 1);
    if (bytes + 1 <= journal.size()) offsets.push_back(bytes + 1);
  }
  std::mt19937_64 rng(20260808u);
  std::uniform_int_distribution<std::uint64_t> dist(0, journal.size());
  for (int i = 0; i < 60; ++i) offsets.push_back(dist(rng));
  ASSERT_GE(offsets.size(), 50u);

  for (std::size_t k = 0; k < offsets.size(); ++k) {
    const std::uint64_t cut = offsets[k];
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string dir = base_ + "/m" + std::to_string(k);
    fs::create_directories(dir);
    spit(dir + "/journal.rps", journal.substr(0, cut));

    // Expected committed state: the largest boundary at or below the cut.
    std::uint64_t exp_end = 0;
    std::size_t exp_cells = 0;
    bool have_run = false;
    for (const auto& [bytes, n] : boundaries) {
      if (bytes <= cut) {
        exp_end = bytes;
        exp_cells = n;
        have_run = true;
      }
    }
    if (!have_run && cut >= sizeof(store::kFileMagic)) {
      exp_end = sizeof(store::kFileMagic);
    }

    // Read-only view first: tolerates the torn tail, reports it.
    {
      store::StoreReader r(dir);
      ASSERT_EQ(r.runs().size(), have_run ? 1u : 0u);
      if (have_run) {
        ASSERT_EQ(r.runs()[0].cells.size(), exp_cells);
      }
      EXPECT_EQ(r.journal_tail_bytes(), cut - exp_end);
    }
    // Writer recovery: quarantine + truncate, then verify bit-identical
    // committed-prefix recovery and a clean store.
    {
      store::StoreWriter w(dir);
      EXPECT_EQ(w.recovery().quarantined_bytes, cut - exp_end);
      if (cut != exp_end) {
        EXPECT_TRUE(fs::exists(w.recovery().quarantine_file));
      }
    }
    store::StoreReader r(dir);
    ASSERT_EQ(r.runs().size(), have_run ? 1u : 0u);
    EXPECT_EQ(r.journal_tail_bytes(), 0u);
    if (have_run) {
      const store::StoredRun& run = r.runs()[0];
      EXPECT_EQ(run.run_id, store::run_config_id(cfg));
      EXPECT_EQ(run.config, cfg);
      ASSERT_EQ(run.cells.size(), exp_cells);
      for (std::size_t i = 0; i < exp_cells; ++i) {
        expect_cells_equal(cells[i], run.cells[i],
                           "cell " + std::to_string(i));
      }
    }
    EXPECT_EQ(store::fsck(dir, false).status, store::FsckStatus::Clean);
    fs::remove_all(dir);
  }
}

TEST_F(StoreTest, ForkedWriterSurvivesSigkill) {
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const std::string dir = base_ + "/kill" + std::to_string(round);
    // The child reports its first commit over this pipe, so the kill
    // lands after it however busy the host is.
    int committed[2];
    ASSERT_EQ(::pipe(committed), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: commit cells until killed. _exit (never exit) so gtest
      // handlers don't run in the doomed copy.
      ::close(committed[0]);
      try {
        store::StoreWriter w(dir);
        w.begin_run(small_config("kill"));
        for (std::size_t i = 0; i < 100000; ++i) {
          w.add_cell(make_cell(i));
          w.commit();
          if (i == 0 && ::write(committed[1], "c", 1) != 1) ::_exit(1);
          ::usleep(200);
        }
      } catch (...) {
      }
      ::_exit(0);
    }
    ::close(committed[1]);
    char byte = 0;
    const ssize_t got_byte = ::read(committed[0], &byte, 1);
    ::close(committed[0]);
    if (got_byte == 1) ::usleep(20000 + 17000 * round);
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_EQ(got_byte, 1) << "child died before its first commit";

    // The flock died with the child, so a new writer opens immediately;
    // recovery leaves exactly a contiguous committed prefix.
    { store::StoreWriter w(dir); }
    store::StoreReader r(dir);
    ASSERT_EQ(r.runs().size(), 1u);
    EXPECT_FALSE(r.runs()[0].complete);
    const auto& got = r.runs()[0].cells;
    EXPECT_GE(got.size(), 1u) << "the first commit was acknowledged";
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_cells_equal(make_cell(i), got[i], "cell " + std::to_string(i));
    }
    EXPECT_EQ(store::fsck(dir, false).status, store::FsckStatus::Clean);
  }
}

// ---------------------------------------------------------------------------
// Decoder fuzzing: arbitrary damage must never crash or mis-commit

TEST_F(StoreTest, FuzzBitFlipsNeverCrashAndOnlyTruncate) {
  const std::string src = base_ + "/src";
  std::vector<store::CellRecord> cells;
  {
    store::StoreWriter w(src);
    w.begin_run(small_config("fuzz"));
    for (std::size_t i = 0; i < 6; ++i) {
      cells.push_back(make_cell(i));
      w.add_cell(cells.back());
      if (i % 2) w.commit();
    }
    w.add_trace_summary({{"wall_sec", 1.0}});
    w.commit();
  }
  const std::string journal = slurp(src + "/journal.rps");
  const std::string dir = base_ + "/flip";
  fs::create_directories(dir);
  std::mt19937_64 rng(0xF11Fu);
  for (int iter = 0; iter < 250; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    std::string mutated = journal;
    const std::size_t bit = rng() % (mutated.size() * 8);
    mutated[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
    spit(dir + "/journal.rps", mutated);
    // A single flipped bit is always caught by the CRC (or the frame /
    // seq / header checks), so recovery may only truncate: every
    // surviving cell must be a bit-identical prefix of the original.
    store::StoreReader r(dir);
    ASSERT_LE(r.runs().size(), 1u);
    if (!r.runs().empty()) {
      const auto& got = r.runs()[0].cells;
      ASSERT_LE(got.size(), cells.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_cells_equal(cells[i], got[i], "cell " + std::to_string(i));
      }
    }
  }
}

TEST_F(StoreTest, FuzzTruncationPlusGarbageTail) {
  const std::string src = base_ + "/src";
  std::vector<store::CellRecord> cells;
  {
    store::StoreWriter w(src);
    w.begin_run(small_config("garbage"));
    for (std::size_t i = 0; i < 6; ++i) {
      cells.push_back(make_cell(i));
      w.add_cell(cells.back());
      w.commit();
    }
  }
  const std::string journal = slurp(src + "/journal.rps");
  const std::string dir = base_ + "/garbage";
  fs::create_directories(dir);
  std::mt19937_64 rng(0x6A6Bu);
  for (int iter = 0; iter < 120; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    std::string mutated = journal.substr(0, rng() % (journal.size() + 1));
    const std::size_t garbage = rng() % 64;
    for (std::size_t i = 0; i < garbage; ++i) {
      mutated.push_back(static_cast<char>(rng()));
    }
    spit(dir + "/journal.rps", mutated);
    store::StoreReader r(dir);
    ASSERT_LE(r.runs().size(), 1u);
    if (!r.runs().empty()) {
      const auto& got = r.runs()[0].cells;
      ASSERT_LE(got.size(), cells.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_cells_equal(cells[i], got[i], "cell " + std::to_string(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Injected I/O faults: journal class

TEST_F(StoreTest, EnospcOnJournalLatchesWriterKeepsStoreClean) {
  store::StoreWriter w(base_);
  w.begin_run(small_config("enospc"));
  w.add_cell(make_cell(0));
  w.commit();
  faults::injector().configure("enospc@journal:1");
  EXPECT_THROW(w.add_cell(make_cell(1)), store::StoreError);
  EXPECT_TRUE(w.failed());
  // The writer stays latched even after the fault disarms.
  faults::injector().reset();
  EXPECT_THROW(w.add_cell(make_cell(2)), store::StoreError);
  EXPECT_THROW(w.commit(), store::StoreError);
  // enospc fails before any byte lands: the store is still clean.
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_EQ(r.runs()[0].cells.size(), 1u);
  EXPECT_EQ(r.journal_tail_bytes(), 0u);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
}

TEST_F(StoreTest, ShortWriteOnJournalIsRecoverable) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("shortwrite"));
    w.add_cell(make_cell(0));
    w.add_cell(make_cell(1));
    w.commit();
    faults::injector().configure("shortwrite@journal:1");
    EXPECT_THROW(w.add_cell(make_cell(2)), store::StoreError);
    EXPECT_TRUE(w.failed());
    faults::injector().reset();
  }
  // Half a record persisted: torn tail, committed prefix intact.
  {
    store::StoreReader r(base_);
    ASSERT_EQ(r.runs().size(), 1u);
    EXPECT_EQ(r.runs()[0].cells.size(), 2u);
    EXPECT_GT(r.journal_tail_bytes(), 0u);
  }
  auto rep = store::fsck(base_, false);
  EXPECT_EQ(rep.status, store::FsckStatus::Recoverable);
  EXPECT_GT(rep.tail_bytes, 0u);
  EXPECT_FALSE(rep.repaired);
  rep = store::fsck(base_, true);
  EXPECT_EQ(rep.status, store::FsckStatus::Recoverable);
  EXPECT_TRUE(rep.repaired);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
  EXPECT_EQ(store::fsck(base_, false).committed_cells, 2u);
}

TEST_F(StoreTest, TornSegWriteOnJournalIsRecoverable) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("tornseg"));
    w.add_cell(make_cell(0));
    w.commit();
    faults::injector().configure("tornseg@journal:1");
    EXPECT_THROW(w.add_cell(make_cell(1)), store::StoreError);
    faults::injector().reset();
  }
  // A torn AND scribbled tail: the CRC catches the corrupt byte even
  // though the record frame may look complete.
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_EQ(r.runs()[0].cells.size(), 1u);
  EXPECT_GT(r.journal_tail_bytes(), 0u);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Recoverable);
  (void)store::fsck(base_, true);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
}

TEST_F(StoreTest, FsyncFailLosesDurabilityNotConsistency) {
  // begin_run writes the first marker of the group, so the commit of the
  // group's last cell is the one that fsyncs.
  const std::size_t cells = store::kSyncEveryCommits - 1;
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("fsyncfail"));
    faults::injector().configure("fsyncfail@journal:1");
    for (std::size_t i = 0; i + 1 < cells; ++i) {
      w.add_cell(make_cell(i));
      w.commit();
    }
    w.add_cell(make_cell(cells - 1));
    EXPECT_THROW(w.commit(), store::StoreError);
    EXPECT_TRUE(w.failed());
    faults::injector().reset();
  }
  // The marker bytes landed before the failed barrier, so every cell IS
  // committed — fsyncfail bounds the durability window, never validity.
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_EQ(r.runs()[0].cells.size(), cells);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
}

// ---------------------------------------------------------------------------
// Injected I/O faults: segment-publication class

TEST_F(StoreTest, EnospcOnSegmentPublicationKeepsRunInJournal) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("pubfail"));
    w.add_cell(make_cell(0));
    faults::injector().configure("enospc@segment:1");
    EXPECT_THROW(w.finish_run(), store::StoreError);
    faults::injector().reset();
  }
  // Publication failed before the rename: the run is complete (final
  // marker durable) and still lives in the journal.
  EXPECT_FALSE(fs::exists(base_ + "/seg-000000.rps"));
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_TRUE(r.runs()[0].complete);
  EXPECT_EQ(r.runs()[0].file, "journal.rps");
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
  // The next writer picks up cleanly and can land + seal further runs.
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("after"));
    w.add_cell(make_cell(1));
    w.finish_run();
  }
  store::StoreReader r2(base_);
  EXPECT_EQ(r2.runs().size(), 2u);
  EXPECT_EQ(r2.segment_count(), 1u);
}

TEST_F(StoreTest, FsyncFailOnSegmentPublicationStaysConsistent) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("pubsync"));
    w.add_cell(make_cell(0));
    faults::injector().configure("fsyncfail@segment:1");
    EXPECT_THROW(w.finish_run(), store::StoreError);
    faults::injector().reset();
  }
  // Rename happened, directory barrier "failed": the segment exists and
  // scans clean; a reopening writer just starts a fresh journal.
  EXPECT_TRUE(fs::exists(base_ + "/seg-000000.rps"));
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_TRUE(r.runs()[0].complete);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);
  { store::StoreWriter w(base_); }
  EXPECT_TRUE(fs::exists(base_ + "/journal.rps"));
}

TEST_F(StoreTest, TornSegOnSealedSegmentIsBeyondRepairUntilQuarantined) {
  std::string id1;
  std::vector<store::CellRecord> run1_cells;
  {
    store::StoreWriter w(base_);
    id1 = w.begin_run(small_config("good"));
    run1_cells.push_back(make_cell(0));
    w.add_cell(run1_cells.back());
    w.finish_run();  // seg-000000.rps, healthy
    w.begin_run(small_config("doomed"));
    w.add_cell(make_cell(1));
    faults::injector().configure("tornseg@segment:1");
    EXPECT_THROW(w.finish_run(), store::StoreError);
    EXPECT_TRUE(w.failed());
    faults::injector().reset();
  }
  // seg-000001.rps was scribbled after sealing: damage inside an
  // immutable segment is "beyond repair" — readers and writers refuse,
  // fsck reports Corrupt, and only --repair (quarantine) clears it.
  EXPECT_THROW(store::StoreReader r(base_), store::CorruptError);
  EXPECT_THROW(store::StoreWriter w(base_), store::CorruptError);
  auto rep = store::fsck(base_, false);
  EXPECT_EQ(rep.status, store::FsckStatus::Corrupt);
  rep = store::fsck(base_, true);
  EXPECT_EQ(rep.status, store::FsckStatus::Corrupt);
  EXPECT_TRUE(rep.repaired);
  EXPECT_TRUE(fs::exists(base_ + "/quarantine/seg-000001.rps"));
  // After quarantine the healthy segment's run survives, bit-identical.
  rep = store::fsck(base_, false);
  EXPECT_EQ(rep.status, store::FsckStatus::Clean);
  store::StoreReader r(base_);
  ASSERT_EQ(r.runs().size(), 1u);
  EXPECT_EQ(r.runs()[0].run_id, id1);
  ASSERT_EQ(r.runs()[0].cells.size(), 1u);
  expect_cells_equal(run1_cells[0], r.runs()[0].cells[0], "cell 0");
  // And the store accepts writers again.
  store::StoreWriter w(base_);
  EXPECT_EQ(w.recovery().quarantined_bytes, 0u);
}

TEST_F(StoreTest, HandCorruptedSealedSegmentThrowsCorruptError) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("sealed"));
    w.add_cell(make_cell(0));
    w.finish_run();
  }
  std::string seg = slurp(base_ + "/seg-000000.rps");
  seg[seg.size() / 2] = static_cast<char>(seg[seg.size() / 2] ^ 0x01);
  spit(base_ + "/seg-000000.rps", seg);
  EXPECT_THROW(store::StoreReader r(base_), store::CorruptError);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Corrupt);
}

// ---------------------------------------------------------------------------
// Writer open at catalog depth

TEST_F(StoreTest, WriterRefusesBitFlipsInAListedSealedSegment) {
  {
    store::StoreWriter w(base_);
    w.begin_run(small_config("listed"));
    w.add_cell(make_cell(0));
    w.commit();
    cali::Profile profile;
    profile.metadata["variant"] = "Base_Seq";
    cali::ProfileNode node;
    node.name = "Kernel_0";
    node.time_sec = 0.5;
    node.metrics = {{"flops", 1e6}};
    profile.roots.push_back(node);
    w.add_profile("Base_Seq", "default", profile);
    w.finish_run();
  }
  const std::string name = "seg-000000.rps";
  const std::string path = base_ + "/" + name;
  const std::string good = slurp(path);
  std::string why;
  const auto manifest = store::load_manifest(base_, &why);
  ASSERT_TRUE(manifest.has_value()) << why;
  const store::ManifestSegment* listed = manifest->segment(name);
  ASSERT_NE(listed, nullptr);
  ASSERT_EQ(listed->file_size, good.size());  // a flip keeps it "fresh"

  // The catalog scan decodes neither a profile nor a cell past its
  // kernel name, but its CRC pass reads every byte: media damage in any
  // payload still keeps the writer out.
  using store::RecordType;
  for (const RecordType type : {RecordType::CellResult,
                                RecordType::ProfileRegion,
                                RecordType::CommitMarker}) {
    SCOPED_TRACE("record type " + std::to_string(static_cast<int>(type)));
    std::size_t offset = 0;
    for (const auto& [at, t] : frames_of(good)) {
      if (t == type && offset == 0) offset = at;
    }
    ASSERT_NE(offset, 0u);
    std::uint32_t len;
    std::memcpy(&len, good.data() + offset + 4, 4);
    const std::size_t payload = offset + store::kFrameBytes + store::kMinBody;
    std::string damaged = good;
    damaged[payload + (len - store::kMinBody) / 2] ^= 0x10;
    spit(path, damaged);
    EXPECT_THROW(store::StoreWriter w(base_), store::CorruptError);
  }
  spit(path, good);
  EXPECT_NO_THROW(store::StoreWriter w(base_));
}

TEST_F(StoreTest, UndecodableJournalRecordIsQuarantinedFromThatRecordOn) {
  using store::RecordType;
  const auto before = small_config("before");
  const auto open = small_config("open");
  const std::string id_before = store::run_config_id(before);
  const std::string id_open = store::run_config_id(open);
  std::string journal(store::kFileMagic, sizeof(store::kFileMagic));
  journal += store::encode_record(RecordType::RunHeader, 1,
                                  header_payload(before));
  journal += store::encode_record(RecordType::CommitMarker, 2,
                                  marker_payload(1, false, id_before));
  journal += store::encode_record(RecordType::CellResult, 3,
                                  store::encode_cell_payload(make_cell(0)));
  journal += store::encode_record(RecordType::CommitMarker, 4,
                                  marker_payload(3, true, id_before));
  journal += store::encode_record(RecordType::RunHeader, 5,
                                  header_payload(open));
  journal += store::encode_record(RecordType::CommitMarker, 6,
                                  marker_payload(5, false, id_open));
  // A CRC-valid record no decoder accepts, then records that commit
  // cleanly behind it: readers stop at it and lose what follows.
  const std::size_t bad_at = journal.size();
  journal += store::encode_record(RecordType::ProfileRegion, 7,
                                  undecodable_profile_payload());
  journal += store::encode_record(RecordType::CommitMarker, 8,
                                  marker_payload(7, false, id_open));
  journal += store::encode_record(RecordType::CellResult, 9,
                                  store::encode_cell_payload(make_cell(1)));
  journal += store::encode_record(RecordType::CommitMarker, 10,
                                  marker_payload(9, true, id_open));
  spit(base_ + "/journal.rps", journal);
  {
    store::StoreReader r(base_);
    ASSERT_EQ(r.runs().size(), 2u);
    EXPECT_EQ(r.journal_tail_bytes(), journal.size() - bad_at);
  }
  // The writer decodes the journal in full, so it truncates at the very
  // byte where every reader stops.
  {
    store::StoreWriter w(base_);
    EXPECT_EQ(w.recovery().quarantined_bytes, journal.size() - bad_at);
    ASSERT_FALSE(w.recovery().quarantine_file.empty());
    EXPECT_EQ(slurp(w.recovery().quarantine_file), journal.substr(bad_at));
  }
  EXPECT_EQ(fs::file_size(base_ + "/journal.rps"), bad_at);
  store::StoreReader r(base_);
  EXPECT_EQ(r.journal_tail_bytes(), 0u);
  ASSERT_EQ(r.runs().size(), 2u);
  EXPECT_EQ(r.runs()[0].run_id, id_before);
  EXPECT_TRUE(r.runs()[0].complete);
  ASSERT_EQ(r.runs()[0].cells.size(), 1u);
  expect_cells_equal(make_cell(0), r.runs()[0].cells[0], "cell 0");
  EXPECT_EQ(r.runs()[1].run_id, id_open);
  EXPECT_FALSE(r.runs()[1].complete);
  EXPECT_TRUE(r.runs()[1].cells.empty());
  EXPECT_TRUE(r.runs()[1].profiles.empty());
}

}  // namespace
