// Tests for the store's query index and planner: the shared slice-by-8
// CRC agreeing with the byte-at-a-time reference, the writer-owned
// MANIFEST.rps catalog (published at each seal, rebuilt at writer open),
// the StoreQuery planner (manifest -> full scan), mmap'd point lookups
// returning bit-identical runs, every index fail-open path (missing,
// stale, unreadable or unlisted manifest, the idxcorrupt fault kind, a
// lying entry caught by point-lookup verification), segments sealed with
// the older per-segment footer staying readable, ambiguous run prefix
// resolution, bloom-filter pruning with no false negatives, parallel
// cold scans being identical to serial ones, the binary-search manifest
// lookup (an out-of-order manifest reads as unreadable), and the scan's
// catalog depth: it catalogues exactly what a full decode catalogues,
// and the one thing it leaves to readers stays fail-closed there.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "sandbox/wire.hpp"
#include "store/index.hpp"
#include "store/query.hpp"
#include "store/scan.hpp"
#include "store/store.hpp"
#include "util/crc32.hpp"

namespace {

using namespace rperf;
namespace fs = std::filesystem;

constexpr std::size_t kChecksumSigBytes =
    sizeof(long double) >= 10 ? 10 : sizeof(long double);

bool checksum_bits_equal(long double a, long double b) {
  return std::memcmp(&a, &b, kChecksumSigBytes) == 0;
}

void expect_runs_equal(const store::StoredRun& a, const store::StoredRun& b,
                       const std::string& where) {
  EXPECT_EQ(a.run_id, b.run_id) << where;
  EXPECT_EQ(a.config, b.config) << where;
  EXPECT_EQ(a.complete, b.complete) << where;
  EXPECT_EQ(a.trace_summary, b.trace_summary) << where;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << where;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const store::CellRecord& x = a.cells[i];
    const store::CellRecord& y = b.cells[i];
    EXPECT_EQ(x.kernel, y.kernel) << where;
    EXPECT_EQ(x.variant, y.variant) << where;
    EXPECT_EQ(x.status, y.status) << where;
    EXPECT_EQ(x.time_per_rep_sec, y.time_per_rep_sec) << where;
    EXPECT_TRUE(checksum_bits_equal(x.checksum, y.checksum)) << where;
  }
  ASSERT_EQ(a.profiles.size(), b.profiles.size()) << where;
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

void append_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// The per-segment footer that earlier builds appended behind a sealed
/// segment's last commit marker, byte for byte:
///   "RPIX" u32 body_len body u32 crc32(magic..body) u32 total_len
///   u64 "1RPSIDX1"
/// where body holds the segment's run directory and bloom filter.
std::string legacy_footer(const store::ManifestSegment& seg,
                          std::uint64_t records_end) {
  wire::Writer w;
  w.set_self_contained(true);
  w.put_u32(1);  // footer version
  w.put_u64(records_end);
  w.put_u32(static_cast<std::uint32_t>(seg.runs.size()));
  for (const auto& run : seg.runs) {
    w.put_bytes(run.run_id);
    w.put_u64(run.first_offset);
    w.put_u64(run.min_seq);
    w.put_u64(run.max_seq);
    w.put_u32(run.cells);
    w.put_u32(run.profiles);
    w.put_u32(run.summaries);
    w.put_u8(run.complete ? 1 : 0);
  }
  w.put_u32(seg.kernels.hashes);
  w.put_bytes(seg.kernels.bits);
  const std::string body = w.take();
  std::string out;
  append_le(out, 0x58495052u, 4);  // "RPIX"
  append_le(out, body.size(), 4);
  out += body;
  append_le(out, util::crc32(out.data(), out.size()), 4);
  append_le(out, body.size() + 24, 4);
  append_le(out, 0x3158444953505231ull, 8);  // "1RPSIDX1"
  return out;
}

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

/// Catalog depth must agree with the full decode on everything a
/// manifest or the writer takes from a scan.
void expect_same_catalog(const store::RecordsScan& full,
                         const store::RecordsScan& catalog,
                         const std::string& where) {
  ASSERT_EQ(full.index.size(), catalog.index.size()) << where;
  for (std::size_t i = 0; i < full.index.size(); ++i) {
    SCOPED_TRACE(where + " run " + std::to_string(i));
    EXPECT_EQ(full.index[i].entry, catalog.index[i].entry);
    EXPECT_EQ(full.index[i].kernels, catalog.index[i].kernels);
  }
  EXPECT_EQ(full.committed_end, catalog.committed_end) << where;
  EXPECT_EQ(full.committed_seq, catalog.committed_seq) << where;
  EXPECT_EQ(full.first_seq, catalog.first_seq) << where;
  EXPECT_EQ(full.clean, catalog.clean) << where;
  EXPECT_EQ(full.committed_cells, catalog.committed_cells) << where;
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

class StoreQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::injector().reset();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = (fs::temp_directory_path() /
             (std::string("rperf_query_") + info->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    faults::injector().reset();
    fs::remove_all(base_);
  }

  /// One complete run (own sealed segment) holding one committed cell
  /// per kernel name. Returns the run's content address.
  std::string write_run(const std::string& tag,
                        const std::vector<std::string>& kernels) {
    store::StoreWriter w(base_);
    const std::string id = w.begin_run(
        {{"suite", "query-test"}, {"tag", tag}, {"size_factor", "0.01"}});
    std::size_t i = 0;
    for (const auto& kernel : kernels) {
      store::CellRecord c;
      c.kernel = kernel;
      c.variant = (i % 2) ? "RAJA_OpenMP" : "Base_Seq";
      c.tuning = "default";
      c.status = "Passed";
      c.time_per_rep_sec = 1e-6 * static_cast<double>(++i);
      c.checksum = (1.0L / 3.0L) * static_cast<long double>(i);
      c.problem_size = 1000;
      c.reps = 10;
      w.add_cell(c);
      w.commit();
    }
    w.add_trace_summary({{"wall_sec", 0.25}, {"cells", double(i)}});
    w.finish_run();
    return id;
  }

  [[nodiscard]] std::string manifest_path() const {
    return base_ + "/" + store::kManifestName;
  }

  [[nodiscard]] store::Manifest manifest() const {
    std::string why;
    auto m = store::load_manifest(base_, &why);
    EXPECT_TRUE(m.has_value()) << why;
    return m.value_or(store::Manifest{});
  }

  [[nodiscard]] std::string latest_segment() const {
    std::string latest;
    for (const auto& e : fs::directory_iterator(base_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && name > latest) latest = name;
    }
    return latest;
  }

  std::string base_;
};

// ---------------------------------------------------------------------------
// Shared CRC32 (one slice-by-8 implementation for the pipe protocol and
// store framing, parity-checked against the byte-at-a-time reference)

TEST_F(StoreQueryTest, SliceBy8Crc32MatchesBytewiseReference) {
  std::mt19937_64 rng(7);
  for (std::size_t len : {std::size_t(0), std::size_t(1), std::size_t(7),
                          std::size_t(8), std::size_t(63), std::size_t(1024),
                          std::size_t(65537)}) {
    std::string data(len, '\0');
    for (auto& ch : data) ch = static_cast<char>(rng());
    EXPECT_EQ(util::crc32(data.data(), data.size()),
              util::crc32_bytewise(data.data(), data.size()))
        << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// The writer-owned manifest

TEST_F(StoreQueryTest, ManifestCataloguesEverySealInLedgerOrder) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Basic_DAXPY"});
  std::string why;
  const auto manifest = store::load_manifest(base_, &why);
  ASSERT_TRUE(manifest.has_value()) << why;
  ASSERT_EQ(manifest->segments.size(), 2u);
  EXPECT_LT(manifest->segments[0].name, manifest->segments[1].name);
  ASSERT_EQ(manifest->segments[0].runs.size(), 1u);
  EXPECT_EQ(manifest->segments[0].runs[0].run_id, a);
  EXPECT_EQ(manifest->segments[1].runs[0].run_id, b);
  for (const auto& seg : manifest->segments) {
    EXPECT_EQ(seg.file_size, fs::file_size(base_ + "/" + seg.name));
    EXPECT_EQ(seg.last_seq, seg.runs[0].max_seq);
  }
}

TEST_F(StoreQueryTest, SealInfoReportsManifestPublication) {
  store::StoreWriter w(base_);
  EXPECT_TRUE(w.last_seal().segment.empty());
  const std::string id = w.begin_run({{"tag", "s"}});
  store::CellRecord c;
  c.kernel = "K";
  c.variant = "Base_Seq";
  c.status = "Passed";
  w.add_cell(c);
  w.commit();
  w.add_trace_summary({{"wall_sec", 0.5}});
  w.finish_run();
  const store::SealInfo& seal = w.last_seal();
  EXPECT_EQ(seal.segment, "seg-000000.rps");
  EXPECT_TRUE(seal.manifest_ok);
  EXPECT_EQ(seal.runs_indexed, 1u);
  EXPECT_EQ(seal.manifest_runs, 1u);
  EXPECT_TRUE(seal.index_error.empty());

  // The sealed segment ends at its last commit marker, and its manifest
  // entry is the run directory a full decode yields.
  const std::string data = slurp(base_ + "/" + seal.segment);
  const store::SegmentScan full =
      store::scan_segment_image(data, seal.segment);
  ASSERT_TRUE(full.data_clean) << full.problem;
  EXPECT_EQ(full.rec.committed_end, data.size());
  const store::Manifest m = manifest();
  ASSERT_EQ(m.segments.size(), 1u);
  EXPECT_EQ(m.segments[0].file_size, data.size());
  ASSERT_EQ(m.segments[0].runs.size(), 1u);
  const store::RunEntry& entry = m.segments[0].runs[0];
  EXPECT_EQ(entry, full.rec.index[0].entry);
  EXPECT_EQ(entry.run_id, id);
  EXPECT_EQ(entry.cells, 1u);
  EXPECT_EQ(entry.summaries, 1u);
  EXPECT_TRUE(entry.complete);
  EXPECT_TRUE(m.segments[0].kernels.maybe_contains("K"));
}

TEST_F(StoreQueryTest, WriterOpenRebuildsAMissingTruncatedOrGarbledManifest) {
  write_run("a", {"Stream_TRIAD"});
  write_run("b", {"Basic_DAXPY"});
  const std::string path = manifest_path();
  const std::string good = slurp(path);
  // A manifest that already matches the segments is left alone.
  const ino_t inode = inode_of(path);
  { store::StoreWriter w(base_); }
  EXPECT_EQ(inode_of(path), inode);

  for (int damage = 0; damage < 3; ++damage) {
    SCOPED_TRACE("damage=" + std::to_string(damage));
    if (damage == 0) {
      fs::remove(path);
    } else if (damage == 1) {
      spit(path, good.substr(0, good.size() / 2));
    } else {
      std::string garbled = good;
      garbled[garbled.size() / 2] ^= 0x01;
      spit(path, garbled);
    }
    {
      store::StoreQuery q(base_);
      EXPECT_FALSE(q.warnings().empty());
      EXPECT_EQ(q.indexed_segments(), 0u);
    }
    { store::StoreWriter w(base_); }
    store::StoreQuery q(base_);
    EXPECT_EQ(q.indexed_segments(), q.segment_count());
    EXPECT_TRUE(q.warnings().empty());
    EXPECT_EQ(slurp(path), good);
  }
}

// ---------------------------------------------------------------------------
// The planner's happy paths

TEST_F(StoreQueryTest, IndexedCatalogListsRunsWithoutDecodingSegments) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Basic_DAXPY", "Stream_ADD"});
  store::StoreQuery q(base_);
  EXPECT_EQ(q.segment_count(), 2u);
  EXPECT_EQ(q.indexed_segments(), 2u);
  EXPECT_TRUE(q.warnings().empty());
  ASSERT_EQ(q.catalog().size(), 2u);
  EXPECT_EQ(q.catalog()[0].meta.run_id, a);
  EXPECT_EQ(q.catalog()[1].meta.run_id, b);
  EXPECT_EQ(q.catalog()[1].meta.cells, 2u);
  EXPECT_EQ(q.catalog()[0].decoded, -1);  // index-only: never decoded
}

TEST_F(StoreQueryTest, PointLookupIsBitIdenticalToFullScan) {
  std::vector<std::string> ids;
  ids.push_back(write_run("a", {"Stream_TRIAD", "Basic_DAXPY"}));
  ids.push_back(write_run("b", {"Stream_ADD"}));
  ids.push_back(write_run("c", {"Stream_COPY", "Basic_IF_QUAD"}));

  store::StoreQuery indexed(base_);
  store::QueryOptions no_index;
  no_index.use_index = false;
  store::StoreQuery scanned(base_, no_index);
  EXPECT_EQ(scanned.indexed_segments(), 0u);
  for (const auto& id : ids) {
    const auto via_index = indexed.run(id.substr(0, 8));
    const auto via_scan = scanned.run(id.substr(0, 8));
    ASSERT_TRUE(via_index.has_value());
    ASSERT_TRUE(via_scan.has_value());
    expect_runs_equal(*via_index, *via_scan, "run " + id);
  }
  EXPECT_TRUE(indexed.warnings().empty());
}

TEST_F(StoreQueryTest, PointLookupDecodesExactlyTheRequestedRun) {
  write_run("a", {"Stream_TRIAD", "Basic_DAXPY"});
  const std::string seg = latest_segment();
  const store::MappedFile mapped(base_ + "/" + seg);
  const store::Manifest m = manifest();
  ASSERT_EQ(m.segments.size(), 1u);
  const store::RunEntry& entry = m.segments[0].runs[0];
  std::string why;
  const auto run = store::read_run(mapped, entry, &why);
  ASSERT_TRUE(run.has_value()) << why;
  const store::SegmentScan full = store::scan_segment_image(mapped.view(), seg);
  ASSERT_EQ(full.rec.runs.size(), 1u);
  expect_runs_equal(*run, full.rec.runs[0], "point lookup vs full scan");

  // A tampered directory entry must fail verification, not mis-decode.
  store::RunEntry lying = entry;
  lying.cells += 1;
  EXPECT_FALSE(store::read_run(mapped, lying, &why).has_value());
  EXPECT_FALSE(why.empty());
  store::RunEntry shifted = entry;
  shifted.min_seq += 1;
  EXPECT_FALSE(store::read_run(mapped, shifted, &why).has_value());
}

TEST_F(StoreQueryTest, ResolveAnswersBothDiffSidesFromOneCatalogPass) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Stream_TRIAD"});
  store::StoreQuery q(base_);
  const auto runs = q.resolve({a, b, "feedfacedeadbeef"});
  ASSERT_EQ(runs.size(), 3u);
  ASSERT_TRUE(runs[0].has_value());
  ASSERT_TRUE(runs[1].has_value());
  EXPECT_EQ(runs[0]->run_id, a);
  EXPECT_EQ(runs[1]->run_id, b);
  EXPECT_FALSE(runs[2].has_value());  // clean miss, not an error
}

TEST_F(StoreQueryTest, AmbiguousDiffPrefixThrowsWithTheCandidateList) {
  // Content addresses are hex: by pigeonhole, 17 distinct runs force
  // two ids to share a first character.
  std::map<char, std::string> by_first;
  std::string prefix;
  std::vector<std::string> expect_ids;
  for (int i = 0; i < 17; ++i) {
    const std::string id = write_run("tag" + std::to_string(i), {"K_A"});
    const auto it = by_first.find(id[0]);
    if (it != by_first.end() && it->second != id) {
      prefix = id.substr(0, 1);
      break;
    }
    by_first[id[0]] = id;
  }
  ASSERT_FALSE(prefix.empty());
  store::StoreQuery q(base_);
  try {
    (void)q.resolve({prefix});
    FAIL() << "ambiguous prefix resolved silently";
  } catch (const store::AmbiguousRunPrefix& e) {
    EXPECT_GE(e.matches().size(), 2u);
    EXPECT_NE(std::string(e.what()).find(prefix), std::string::npos);
  }
  // run() keeps latest-match semantics for the same prefix.
  EXPECT_TRUE(q.run(prefix).has_value());
}

// ---------------------------------------------------------------------------
// Index fail-open paths

TEST_F(StoreQueryTest, PreIndexSegmentsStayFullyReadable) {
  const std::string a = write_run("a", {"Stream_TRIAD"});
  const std::string b = write_run("b", {"Basic_DAXPY"});
  fs::remove(manifest_path());
  EXPECT_FALSE(fs::exists(manifest_path()));

  store::StoreQuery q(base_);
  EXPECT_EQ(q.indexed_segments(), 0u);
  ASSERT_EQ(q.catalog().size(), 2u);
  const auto run = q.run(b.substr(0, 6));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->run_id, b);
  // A pre-index store is clean, with a note naming the unindexed state.
  const store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
}

TEST_F(StoreQueryTest, MixedPreIndexAndIndexedSegmentsCompose) {
  const std::string old = write_run("old", {"Stream_TRIAD"});
  const std::string fresh = write_run("fresh", {"Basic_DAXPY"});
  store::Manifest m = manifest();
  m.segments.erase(m.segments.begin());  // "old" predates the index
  store::save_manifest(base_, m);
  store::StoreQuery q(base_);
  EXPECT_EQ(q.segment_count(), 2u);
  EXPECT_EQ(q.indexed_segments(), 1u);
  ASSERT_TRUE(q.run(old.substr(0, 8)).has_value());
  ASSERT_TRUE(q.run(fresh.substr(0, 8)).has_value());
  ASSERT_EQ(q.all_runs().size(), 2u);
}

TEST_F(StoreQueryTest, StaleManifestEntryFallsBackToFullScan) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  store::Manifest m = manifest();
  m.segments[0].file_size += 1;  // no longer matches the dir
  store::save_manifest(base_, m);

  store::StoreQuery q(base_);
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings()[0].find("stale manifest"), std::string::npos);
  EXPECT_EQ(q.indexed_segments(), 0u);
  EXPECT_TRUE(q.run(id.substr(0, 8)).has_value());
}

TEST_F(StoreQueryTest, UnreadableManifestFallsBackToFullScan) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  std::string garbage = slurp(manifest_path());
  garbage[garbage.size() / 2] ^= 0x01;
  spit(manifest_path(), garbage);

  store::StoreQuery q(base_);
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings()[0].find("manifest"), std::string::npos);
  EXPECT_EQ(q.indexed_segments(), 0u);
  EXPECT_TRUE(q.run(id.substr(0, 8)).has_value());
}

TEST_F(StoreQueryTest, IdxCorruptFaultDegradesIndexButCommitsTheRun) {
  faults::injector().configure("idxcorrupt@index:1");
  const std::string id = [&] {
    store::StoreWriter w(base_);
    const std::string rid = w.begin_run({{"tag", "faulted"}});
    store::CellRecord c;
    c.kernel = "Stream_TRIAD";
    c.variant = "Base_Seq";
    c.status = "Passed";
    w.add_cell(c);
    w.commit();
    w.finish_run();
    EXPECT_FALSE(w.last_seal().index_error.empty());
    EXPECT_FALSE(w.last_seal().manifest_ok);
    return rid;
  }();
  faults::injector().reset();

  {
    store::StoreQuery q(base_);
    ASSERT_FALSE(q.warnings().empty());
    EXPECT_NE(q.warnings().back().find("falling back to full scan"),
              std::string::npos);
    const auto run = q.run(id.substr(0, 8));
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->cells.size(), 1u);
    EXPECT_TRUE(run->complete);
  }
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Clean);

  // The next writer open rewrites the manifest.
  { store::StoreWriter w(base_); }
  store::StoreQuery q(base_);
  EXPECT_TRUE(q.warnings().empty());
  EXPECT_EQ(q.indexed_segments(), 1u);
}

// ---------------------------------------------------------------------------
// A manifest entry that lies about the records

TEST_F(StoreQueryTest, LyingManifestEntryIsCaughtByPointLookupAndRepaired) {
  const std::string id = write_run("a", {"Stream_TRIAD"});
  const store::Manifest good = manifest();
  store::Manifest lying = good;
  lying.segments[0].runs[0].cells += 2;  // same file size: still "fresh"
  store::save_manifest(base_, lying);

  store::StoreQuery q(base_);
  EXPECT_EQ(q.indexed_segments(), 1u);
  EXPECT_TRUE(q.warnings().empty());
  const auto run = q.run(id.substr(0, 8));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->cells.size(), 1u);  // the full scan's answer
  ASSERT_FALSE(q.warnings().empty());
  EXPECT_NE(q.warnings().back().find("point lookup"), std::string::npos);

  // fsck notes the drift without changing the status (the index is a
  // cache), and --repair rewrites the manifest from the segments.
  store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
  bool noted = false;
  for (const auto& note : report.notes) {
    noted = noted || note.find("stale manifest entry") != std::string::npos;
  }
  EXPECT_TRUE(noted);
  report = store::fsck(base_, true);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(manifest().segments, good.segments);
  report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
  EXPECT_TRUE(report.notes.empty());
}

// ---------------------------------------------------------------------------
// Segments sealed with the older per-segment footer

TEST_F(StoreQueryTest, LegacyFooterSegmentReadsCleanAndBitIdentical) {
  const std::string id = write_run("a", {"Stream_TRIAD", "Basic_DAXPY"});
  const std::string path = base_ + "/" + latest_segment();
  const store::StoreReader before(base_);
  // Append the footer as the older layout did, and record the grown file
  // size in the manifest, as that build's seal did.
  store::Manifest m = manifest();
  std::string data = slurp(path);
  data += legacy_footer(m.segments[0], data.size());
  spit(path, data);
  m.segments[0].file_size = data.size();
  store::save_manifest(base_, m);

  const store::StoreReader reader(base_);
  ASSERT_EQ(reader.runs().size(), 1u);
  expect_runs_equal(reader.runs()[0], before.runs()[0], "reader");

  store::StoreQuery indexed(base_);
  EXPECT_EQ(indexed.indexed_segments(), 1u);
  store::QueryOptions no_index;
  no_index.use_index = false;
  store::StoreQuery scanned(base_, no_index);
  const auto via_index = indexed.run(id.substr(0, 8));
  const auto via_scan = scanned.run(id.substr(0, 8));
  ASSERT_TRUE(via_index.has_value());
  ASSERT_TRUE(via_scan.has_value());
  expect_runs_equal(*via_index, *via_scan, "point lookup vs full scan");
  expect_runs_equal(*via_scan, before.runs()[0], "full scan vs original");
  EXPECT_TRUE(indexed.warnings().empty());

  const store::FsckReport report = store::fsck(base_, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
  EXPECT_TRUE(report.notes.empty());
}

TEST_F(StoreQueryTest, BytesAfterALegacyFooterStayCorrupt) {
  write_run("a", {"Stream_TRIAD"});
  const std::string path = base_ + "/" + latest_segment();
  std::string data = slurp(path);
  data += legacy_footer(manifest().segments[0], data.size()) + "x";
  spit(path, data);

  EXPECT_THROW(store::StoreReader r(base_), store::CorruptError);
  EXPECT_THROW(store::StoreQuery q(base_), store::CorruptError);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Corrupt);
}

// ---------------------------------------------------------------------------
// Bloom pruning

TEST_F(StoreQueryTest, KernelQueriesNeverLoseRunsAndUsuallyPrune) {
  const std::string a = write_run("a", {"Alpha_One", "Alpha_Two"});
  const std::string b = write_run("b", {"Beta_One"});
  store::StoreQuery q(base_);
  const auto hits = q.runs_with_kernel("Alpha_One");
  bool found = false;
  for (const auto& run : hits) found = found || run.run_id == a;
  EXPECT_TRUE(found);  // no false negatives, ever
  EXPECT_LE(q.last_bloom_pruned(), 1u);

  const auto none = q.runs_with_kernel("Gamma_NotThere");
  for (const auto& run : none) {
    for (const auto& c : run.cells) EXPECT_NE(c.kernel, "Gamma_NotThere");
  }
}

TEST_F(StoreQueryTest, BloomFalsePositiveOnlyCostsADecode) {
  store::BloomFilter bloom = store::BloomFilter::sized_for(1);
  bloom.add("Stream_TRIAD");
  EXPECT_TRUE(bloom.maybe_contains("Stream_TRIAD"));
  // Hashing is deterministic, so hunt down a concrete false positive:
  // the filter says "maybe" for a key that was never added. The query
  // layer must treat that as "decode and check", never as an answer.
  std::string fp;
  for (int i = 0; i < 1 << 20 && fp.empty(); ++i) {
    const std::string probe = "probe_" + std::to_string(i);
    if (bloom.maybe_contains(probe)) fp = probe;
  }
  ASSERT_FALSE(fp.empty()) << "no false positive in 2^20 probes";
  EXPECT_NE(fp, "Stream_TRIAD");
  // An unusable (empty) filter can only widen the answer, never exclude.
  store::BloomFilter empty;
  EXPECT_TRUE(empty.maybe_contains("anything"));
}

// ---------------------------------------------------------------------------
// Parallel cold scans

TEST_F(StoreQueryTest, ParallelScanIsIdenticalToSerial) {
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(write_run("tag" + std::to_string(i),
                            {"K_" + std::to_string(i), "Stream_TRIAD"}));
  }
  const store::StoreReader serial(base_, 1);
  const store::StoreReader parallel(base_, 4);
  ASSERT_EQ(serial.runs().size(), ids.size());
  ASSERT_EQ(parallel.runs().size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_runs_equal(serial.runs()[i], parallel.runs()[i],
                      "run " + std::to_string(i));
  }
  const store::FsckReport one = store::fsck(base_, false, 1);
  const store::FsckReport four = store::fsck(base_, false, 4);
  EXPECT_EQ(one.status, four.status);
  EXPECT_EQ(one.runs, four.runs);
  EXPECT_EQ(one.committed_cells, four.committed_cells);
}

// ---------------------------------------------------------------------------
// The manifest lookup

TEST_F(StoreQueryTest, ManifestSegmentLookupFindsEveryListedNameAndNoOther) {
  // Every other segment name is listed, so each absent name sits between
  // two entries (or past the last one).
  store::Manifest m;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    store::ManifestSegment seg;
    seg.name = store::segment_name(2 * i);
    seg.last_seq = i + 1;
    m.segments.push_back(std::move(seg));
  }
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const store::ManifestSegment* found =
        m.segment(store::segment_name(2 * i));
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(found->last_seq, i + 1);
    EXPECT_EQ(m.segment(store::segment_name(2 * i + 1)), nullptr) << i;
  }
  EXPECT_EQ(m.segment(""), nullptr);
  EXPECT_EQ(m.segment("seg-"), nullptr);
  EXPECT_EQ(m.segment("seg-000000.rps.tmp"), nullptr);
  EXPECT_EQ(m.segment("zzz"), nullptr);
  EXPECT_EQ(store::Manifest{}.segment(store::segment_name(0)), nullptr);

  std::string why;
  const auto decoded = store::decode_manifest(store::encode_manifest(m), &why);
  ASSERT_TRUE(decoded.has_value()) << why;
  EXPECT_EQ(decoded->segments, m.segments);
}

TEST_F(StoreQueryTest,
       OutOfOrderManifestReadsAsUnreadableAndFallsBackToFullScan) {
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(write_run("tag" + std::to_string(i),
                            {"K_" + std::to_string(i)}));
  }
  const std::string good = slurp(manifest_path());
  store::Manifest swapped = manifest();
  std::swap(swapped.segments[0], swapped.segments[2]);
  std::string why;
  EXPECT_FALSE(
      store::decode_manifest(store::encode_manifest(swapped), &why));
  EXPECT_NE(why.find("out of order"), std::string::npos) << why;
  store::Manifest repeated = manifest();
  repeated.segments[1] = repeated.segments[0];
  EXPECT_FALSE(
      store::decode_manifest(store::encode_manifest(repeated), &why));

  store::save_manifest(base_, swapped);
  {
    store::StoreQuery q(base_);
    ASSERT_FALSE(q.warnings().empty());
    EXPECT_NE(q.warnings()[0].find("unreadable manifest"), std::string::npos)
        << q.warnings()[0];
    EXPECT_NE(q.warnings()[0].find("full scan"), std::string::npos);
    EXPECT_EQ(q.indexed_segments(), 0u);
    for (const auto& id : ids) {
      const auto run = q.run(id);
      ASSERT_TRUE(run.has_value()) << id;
      EXPECT_EQ(run->run_id, id);
    }
  }
  // The next writer open rewrites it, in order.
  { store::StoreWriter w(base_); }
  EXPECT_EQ(slurp(manifest_path()), good);
  store::StoreQuery q(base_);
  EXPECT_TRUE(q.warnings().empty());
  EXPECT_EQ(q.indexed_segments(), 3u);
}

// ---------------------------------------------------------------------------
// The scan's catalog depth

TEST_F(StoreQueryTest, WriterOpenWritesTheManifestFsckRepairWrites) {
  // Segment 0: a complete run with counters, profiles and a trace
  // summary, sealed in the footer layout of earlier builds.
  {
    store::StoreWriter w(base_);
    w.begin_run({{"tag", "full"}});
    for (std::size_t i = 0; i < 3; ++i) {
      store::CellRecord c;
      c.kernel =
          i == 2 ? "Polybench_FLOYD_WARSHALL" : "K_" + std::to_string(i);
      c.variant = "Base_Seq";
      c.status = "Passed";
      w.add_cell(c);
      store::CounterRecord counters;
      counters.kernel = c.kernel;
      counters.variant = c.variant;
      counters.source = "simulated";
      counters.values = {{"PAPI_TOT_INS", 1e6 * double(i + 1)}};
      w.add_counters(counters);
      w.commit();
    }
    cali::Profile profile;
    profile.metadata["variant"] = "Base_Seq";
    cali::ProfileNode node;
    node.name = "K_0";
    node.time_sec = 0.25;
    node.metrics = {{"flops", 1e6}};
    profile.roots.push_back(node);
    w.add_profile("Base_Seq", "default", profile);
    w.add_trace_summary({{"wall_sec", 0.5}});
    w.finish_run();
  }
  {
    const std::string path = base_ + "/" + latest_segment();
    std::string data = slurp(path);
    data += legacy_footer(manifest().segments[0], data.size());
    spit(path, data);
  }
  // Segment 1: a run a killed writer left incomplete (committed cells,
  // an uncommitted tail), then the next writer's complete run, sealed
  // together by its finish_run.
  {
    store::StoreWriter w(base_);
    w.begin_run({{"tag", "killed"}});
    store::CellRecord c;
    c.kernel = "K_killed";
    c.status = "Passed";
    w.add_cell(c);
    w.commit();
    w.add_cell(c);  // never committed
  }
  {
    store::StoreWriter w(base_);
    EXPECT_GT(w.recovery().quarantined_bytes, 0u);
    w.begin_run({{"tag", "after"}});
    store::CellRecord c;
    c.kernel = "K_after";
    c.status = "Passed";
    w.add_cell(c);
    w.commit();
    w.add_trace_summary({{"wall_sec", 0.75}});
    w.finish_run();
  }
  // Segment 2: a plain one-run segment, as the builds before the index
  // sealed them.
  write_run("plain", {"Stream_TRIAD", "Basic_DAXPY"});

  const std::string repaired = base_ + "_fsck";
  fs::remove_all(repaired);
  fs::copy(base_, repaired, fs::copy_options::recursive);
  fs::remove(manifest_path());
  fs::remove(repaired + "/" + store::kManifestName);

  { store::StoreWriter w(base_); }
  const store::FsckReport report = store::fsck(repaired, true);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
  EXPECT_TRUE(report.repaired);
  const std::string by_writer = slurp(manifest_path());
  const std::string by_fsck = slurp(repaired + "/" + store::kManifestName);
  fs::remove_all(repaired);
  ASSERT_FALSE(by_writer.empty());
  EXPECT_EQ(by_writer, by_fsck);

  const store::Manifest m = manifest();
  ASSERT_EQ(m.segments.size(), 3u);
  ASSERT_EQ(m.segments[1].runs.size(), 2u);
  EXPECT_FALSE(m.segments[1].runs[0].complete);
  EXPECT_TRUE(m.segments[1].runs[1].complete);
  EXPECT_TRUE(
      m.segments[0].kernels.maybe_contains("Polybench_FLOYD_WARSHALL"));

  for (const unsigned threads : {1u, 4u}) {
    const std::string at = "threads=" + std::to_string(threads);
    const store::LedgerScan full = store::scan_ledger(base_, threads);
    const store::LedgerScan catalog =
        store::scan_ledger(base_, threads, store::ScanDepth::Catalog);
    ASSERT_EQ(full.segments.size(), 3u);
    ASSERT_EQ(catalog.segments.size(), full.segments.size());
    for (std::size_t i = 0; i < full.segments.size(); ++i) {
      const std::string where = at + " " + full.segments[i].name;
      EXPECT_TRUE(catalog.segments[i].data_clean) << where;
      EXPECT_EQ(catalog.segments[i].size, full.segments[i].size) << where;
      expect_same_catalog(full.segments[i].rec, catalog.segments[i].rec,
                          where);
    }
    expect_same_catalog(full.journal, catalog.journal, at + " journal");
    EXPECT_EQ(catalog.final_committed_seq, full.final_committed_seq) << at;
    EXPECT_EQ(catalog.committed_cells, full.committed_cells) << at;
    EXPECT_EQ(full.runs.size(), 4u) << at;
    EXPECT_TRUE(catalog.runs.empty()) << at;
  }
}

TEST_F(StoreQueryTest, UndecodableSealedPayloadOpensTheWriterAndFailsReaders) {
  // A sealed segment whose profile record frames and CRC-checks but does
  // not decode: only a writer that encoded it wrong can produce one.
  using store::RecordType;
  const std::map<std::string, std::string> config = {{"tag", "bad-profile"}};
  const std::string id = store::run_config_id(config);
  store::CellRecord cell;
  cell.kernel = "Stream_TRIAD";
  cell.status = "Passed";
  wire::Writer bad;
  bad.put_bytes("Base_Seq");
  bad.put_bytes("default");
  bad.put_u32(1000);  // metadata entries the payload does not hold
  std::string seg(store::kFileMagic, sizeof(store::kFileMagic));
  seg += store::encode_record(RecordType::RunHeader, 1,
                              header_payload(config));
  seg += store::encode_record(RecordType::CommitMarker, 2,
                              marker_payload(1, false, id));
  seg += store::encode_record(RecordType::CellResult, 3,
                              store::encode_cell_payload(cell));
  seg += store::encode_record(RecordType::CommitMarker, 4,
                              marker_payload(3, false, id));
  seg += store::encode_record(RecordType::ProfileRegion, 5, bad.take());
  seg += store::encode_record(RecordType::CommitMarker, 6,
                              marker_payload(5, true, id));
  const std::string name = store::segment_name(0);
  spit(base_ + "/" + name, seg);

  EXPECT_TRUE(
      store::scan_segment_image(seg, name, store::ScanDepth::Catalog)
          .data_clean);
  const store::SegmentScan full = store::scan_segment_image(seg, name);
  EXPECT_FALSE(full.data_clean);
  EXPECT_NE(full.problem.find("payload decode failed"), std::string::npos)
      << full.problem;

  // The writer opens and lists the segment...
  { store::StoreWriter w(base_); }
  const store::Manifest m = manifest();
  ASSERT_EQ(m.segments.size(), 1u);
  ASSERT_EQ(m.segments[0].runs.size(), 1u);
  EXPECT_EQ(m.segments[0].runs[0].profiles, 1u);
  EXPECT_TRUE(m.segments[0].runs[0].complete);

  // ... and every reader decodes it in full and fails closed.
  EXPECT_THROW(store::StoreReader r(base_), store::CorruptError);
  EXPECT_EQ(store::fsck(base_, false).status, store::FsckStatus::Corrupt);
  {
    store::StoreQuery q(base_);
    EXPECT_EQ(q.indexed_segments(), 1u);
    EXPECT_THROW((void)q.all_runs(), store::CorruptError);
  }
  store::StoreQuery q(base_);
  EXPECT_THROW((void)q.run(id), store::CorruptError);
}

}  // namespace
