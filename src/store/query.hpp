// StoreQuery — the index-driven query planner over a .rps store.
//
// Construction builds a run catalog in one ledger pass. A sealed segment
// that MANIFEST.rps lists with its current file size is served from the
// manifest and never opened; any other segment (unlisted, stale, or all
// of them when the manifest is missing or unreadable) is decoded in full,
// with a warning. The journal is always fully scanned: it is the one
// mutable file, so no cached index can describe it. Index damage costs
// speed, never correctness; record damage still throws CorruptError
// (fail closed). Point lookups mmap one segment and decode only the
// requested run's frames, verifying the manifest's claims against the
// decoded records.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/index.hpp"
#include "store/io.hpp"
#include "store/store.hpp"

namespace rperf::store {

struct QueryOptions {
  /// Thread count for full-ledger scans (0 = min(4, hardware)).
  unsigned threads = 0;
  /// false disables the manifest entirely (--no-index): every query
  /// takes the full-scan path. For benchmarks and fallback tests.
  bool use_index = true;
};

/// A resolve() prefix that names more than one run. rperf-report maps it
/// to a usage error (exit 2), listing the candidates — never a silent
/// latest-wins pick.
class AmbiguousRunPrefix : public StoreError {
 public:
  AmbiguousRunPrefix(const std::string& prefix,
                     std::vector<std::string> matches);
  [[nodiscard]] const std::vector<std::string>& matches() const {
    return matches_;
  }

 private:
  std::vector<std::string> matches_;
};

/// Point lookup in a mapped sealed segment: decode exactly the run
/// `entry` describes, from its first frame to its last commit marker,
/// touching no other run's frames. Returns nullopt (with `why`) when the
/// entry's claims (run id, seq range, record counts) do not survive
/// verification against the decoded records — a lying index can
/// redirect a query only into a detectable mismatch, never into a wrong
/// answer.
[[nodiscard]] std::optional<StoredRun> read_run(const MappedFile& segment,
                                                const RunEntry& entry,
                                                std::string* why);

/// One catalogued run: enough to list it and to seek to it.
struct CatalogEntry {
  RunEntry meta;      ///< id, offsets, seq range, record counts
  std::string file;   ///< segment name or "journal.rps"
  int decoded = -1;   ///< index into decoded runs, -1 = index-only
};

class StoreQuery {
 public:
  /// Throws StoreError when DIR holds no store; CorruptError when a
  /// record region is damaged (index damage only warns).
  explicit StoreQuery(std::string dir, QueryOptions opt = {});

  /// Runs in ledger order, without necessarily having decoded any.
  [[nodiscard]] const std::vector<CatalogEntry>& catalog() const {
    return catalog_;
  }
  [[nodiscard]] std::size_t segment_count() const { return segment_count_; }
  /// Segments served purely from the manifest (no record decode).
  [[nodiscard]] std::size_t indexed_segments() const {
    return indexed_segments_;
  }
  [[nodiscard]] std::uint64_t journal_tail_bytes() const {
    return tail_bytes_;
  }
  /// Index degradations observed so far (missing or unreadable
  /// manifest, stale or unlisted segment, failed point lookup ...).
  /// Each is a complete sentence.
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }
  /// Segments skipped by the bloom filter in the last kernel-filtered
  /// query (for tests and the bench to assert pruning happened).
  [[nodiscard]] std::size_t last_bloom_pruned() const {
    return last_bloom_pruned_;
  }

  /// Latest run whose id starts with `prefix` (empty = latest run),
  /// decoded via point lookup when indexed. nullopt = no match.
  [[nodiscard]] std::optional<StoredRun> run(const std::string& prefix);

  /// Resolve several prefixes against the one catalog (single ledger
  /// pass — rperf-report's --run A --compare B). Each prefix must name
  /// exactly one distinct run id; throws AmbiguousRunPrefix otherwise. A
  /// missing prefix yields nullopt at its position.
  [[nodiscard]] std::vector<std::optional<StoredRun>> resolve(
      const std::vector<std::string>& prefixes);

  /// Every run, fully decoded (aggregations; cached after first call).
  [[nodiscard]] const std::vector<StoredRun>& all_runs();

  /// Runs that may contain `kernel`, using per-segment bloom filters to
  /// skip segments that provably do not (no false negatives: every run
  /// holding the kernel is returned; extras are possible and harmless).
  [[nodiscard]] std::vector<StoredRun> runs_with_kernel(
      const std::string& kernel);

 private:
  struct SegmentInfo {
    std::string name;
    bool indexed = false;       ///< catalog came from the manifest
    BloomFilter kernels;        ///< indexed only
    std::size_t first_entry = 0;  ///< range into catalog_
    std::size_t entry_count = 0;
  };

  void build_catalog();
  void warn(std::string message) { warnings_.push_back(std::move(message)); }
  [[nodiscard]] std::vector<StoredRun> decode_segment(
      const SegmentInfo& seg);  ///< full decode, fail-closed

  std::string dir_;
  QueryOptions opt_;
  std::vector<CatalogEntry> catalog_;
  std::vector<SegmentInfo> segments_;
  std::vector<StoredRun> decoded_;  ///< runs decoded during cataloguing
  std::optional<std::vector<StoredRun>> all_;
  std::vector<std::string> warnings_;
  std::size_t segment_count_ = 0;
  std::size_t indexed_segments_ = 0;
  std::uint64_t tail_bytes_ = 0;
  std::size_t last_bloom_pruned_ = 0;
};

}  // namespace rperf::store
