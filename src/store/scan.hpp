// The store's one record-reassembly routine, shared by writer recovery,
// the reader, fsck, the seal-time manifest entry, and the query
// planner's point lookups — so every consumer agrees byte-for-byte on
// what "committed" means.
//
// Everything here operates on std::string_view, so callers can hand in
// an mmap'd segment (store::MappedFile) and records are decoded in
// place: no read()+copy of files a query only touches a few frames of.
// CRC is verified per touched frame, exactly as the streaming scan
// always did.
//
// scan_ledger() is the whole-store cold scan. Sealed segments are
// independent scan units (a run never spans a seal, and the first seq
// of a file may only jump forward), so segment scans fan out across a
// small thread pool and are joined in ledger order with the cross-file
// sequence check re-applied at the join — the result is bit-identical
// to the sequential scan for any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/index.hpp"
#include "store/store.hpp"

namespace rperf::store {

/// Per-run index info gathered during a scan: the manifest entry the run
/// gets, plus its committed cells' kernel names (bloom input).
struct RunIndexInfo {
  RunEntry entry;
  std::vector<std::string> kernels;
};

/// Result of scanning one records region.
struct RecordsScan {
  std::uint64_t committed_end = 0;  ///< bytes that are committed state
  std::uint64_t stop_pos = 0;       ///< offset where scanning stopped
  bool clean = false;               ///< every byte accounted for
  std::string why;                  ///< first problem (clean => empty)
  std::uint64_t first_seq = 0;      ///< seq of first valid record (0 none)
  std::uint64_t committed_seq = 0;  ///< seq of last *applied* marker
  std::size_t committed_cells = 0;
  std::vector<StoredRun> runs;      ///< committed runs, append order
  std::vector<RunIndexInfo> index;  ///< parallel to runs
};

/// Scan framed records in data[begin, end). Committed state advances
/// only at valid commit markers; any structural violation — bad magic,
/// bad length, CRC mismatch, sequence break, undecodable payload,
/// orphan marker — stops the scan at that point (fail closed). The
/// first record's seq must exceed `prev_seq`; later seqs step by
/// exactly 1. A nonzero `stop_after_seq` ends the scan cleanly right
/// after the marker with that seq is applied (point lookups).
[[nodiscard]] RecordsScan scan_records(std::string_view data,
                                       std::size_t begin, std::size_t end,
                                       std::uint64_t prev_seq,
                                       const std::string& file,
                                       std::uint64_t stop_after_seq = 0);

/// One sealed segment, scanned: a full record decode. `data_clean` is
/// false on any record damage or trailing bytes (fail closed).
struct SegmentScan {
  std::string name;  ///< file name (e.g. "seg-000001.rps")
  std::uint64_t size = 0;
  RecordsScan rec;
  bool data_clean = false;
  std::string problem;  ///< "name: why" when !data_clean
};

/// Scan a full segment image. Its records must run to EOF, except that a
/// segment sealed by a build that still appended per-segment footers may
/// end in one: when the records stop, fully committed, at the footer's
/// "RPIX" magic and the file ends in the footer's end magic, the footer
/// bytes are ignored. Records stopping anywhere else fail closed.
[[nodiscard]] SegmentScan scan_segment_image(std::string_view data,
                                             const std::string& name);

/// Scan a journal image: records run to EOF, and anything behind the
/// last commit marker is torn tail. `prev_seq` seeds the cross-file
/// sequence check.
[[nodiscard]] RecordsScan scan_journal_image(std::string_view data,
                                             std::uint64_t prev_seq);

/// The whole store, scanned and joined in ledger order.
struct LedgerScan {
  std::vector<SegmentScan> segments;  ///< sorted by file name
  bool any_files = false;
  bool journal_exists = false;
  std::uint64_t journal_size = 0;
  std::uint64_t journal_committed_end = 0;  ///< truncation target
  std::string journal_why;                  ///< tail cause (maybe empty)
  RecordsScan journal;
  std::uint64_t max_segment_index = 0;
  std::uint64_t final_committed_seq = 0;  ///< across segments + journal

  // Joined views over every healthy file's committed state (damaged
  // segments contribute their committed prefix, as the sequential scan
  // always had it; a segment rejected at the join for a sequence
  // violation contributes nothing).
  std::vector<StoredRun> runs;
  std::size_t committed_cells = 0;
  std::vector<std::size_t> damaged;  ///< indices into segments
  std::vector<std::string> segment_problems;  ///< "file: why"

  [[nodiscard]] std::uint64_t tail_bytes() const {
    return journal_exists && journal_size > journal_committed_end
               ? journal_size - journal_committed_end
               : 0;
  }
};

/// Scan every file in DIR. `threads` = 0 picks min(4, hardware);
/// segment scans run in parallel, the join is deterministic.
[[nodiscard]] LedgerScan scan_ledger(const std::string& dir,
                                     unsigned threads = 0);

/// File name of sealed segment number `index`: "seg-NNNNNN.rps".
[[nodiscard]] std::string segment_name(std::uint64_t index);

/// The sealed-segment file names in `dir`, sorted (ledger order); empty
/// when `dir` is not a directory.
[[nodiscard]] std::vector<std::string> list_segments(const std::string& dir);

/// `problems` joined with "; ", for one-line error messages.
[[nodiscard]] std::string joined_problems(
    const std::vector<std::string>& problems);

/// Effective worker count for a parallel scan over `files` files.
[[nodiscard]] unsigned scan_threads(unsigned requested, std::size_t files);

}  // namespace rperf::store
