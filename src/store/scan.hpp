// The store's one record-reassembly routine, shared by writer recovery,
// the reader, fsck, the seal-time manifest entry, and the query
// planner's point lookups — so every consumer agrees byte-for-byte on
// what "committed" means.
//
// Everything here operates on std::string_view, so a caller hands in
// whatever holds the bytes: a point lookup maps one segment
// (store::MappedFile) and decodes only the frames of the run it wants;
// the whole-store scan reads each segment into a buffer its worker
// thread reuses (a mapping per segment costs more: its pages fault in
// one by one, and every map, fault and unmap takes the process's
// address-space lock, which the scan threads share). CRC is verified
// per touched frame.
//
// Two depths, one state machine. ScanDepth::Full decodes every record
// into StoredRuns. ScanDepth::Catalog makes every check Full makes on
// frames, CRCs, sequences, the commit protocol and the run-id hash, but
// decodes only what a manifest entry needs: each run header, each commit
// marker and each cell's kernel name. Its RecordsScan::index, first_seq,
// committed_seq, committed_end and clean equal Full's on any input whose
// records all decode; it gives up one thing: a CRC-valid cell (past its
// kernel name), profile, counter set or trace summary that fails to
// decode is accepted. Only a writer that encoded those bytes wrong can
// produce one (the CRC covers them), and every reader still decodes in
// full and fails closed on it. The writer's open and its seal scan
// sealed bytes at catalog depth; the journal, which the writer truncates
// to its committed end, is always scanned in full so writer and readers
// agree on that end byte for byte.
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

/// How much of each record a scan decodes (see the file comment).
enum class ScanDepth {
  Full,     ///< every record, into RecordsScan::runs
  Catalog,  ///< headers, markers, cell kernel names; `runs` stays empty
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
  std::vector<StoredRun> runs;      ///< committed runs (Full only)
  std::vector<RunIndexInfo> index;  ///< per committed run, append order
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
                                       ScanDepth depth = ScanDepth::Full,
                                       std::uint64_t stop_after_seq = 0);

/// One sealed segment, scanned. `data_clean` is false on any record
/// damage or trailing bytes (fail closed).
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
[[nodiscard]] SegmentScan scan_segment_image(
    std::string_view data, const std::string& name,
    ScanDepth depth = ScanDepth::Full);

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
  // violation contributes nothing). `runs` stays empty at catalog depth.
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
/// segment scans run in parallel, the join is deterministic. Sealed
/// segments are scanned at `depth`, the journal always in full.
[[nodiscard]] LedgerScan scan_ledger(const std::string& dir,
                                     unsigned threads = 0,
                                     ScanDepth depth = ScanDepth::Full);

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
