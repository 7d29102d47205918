// rperf::store — crash-consistent, append-only profile store.
//
// The suite's results today land in one-shot JSON dumps plus line-JSON
// checkpoints; neither survives a kill -9 mid-write with a defined
// state. This store is the durable, multi-run ledger the
// suite-as-a-service direction needs: every run the suite executes can
// land here and be queried, diffed, and composed across history the way
// Thicket composes thousands of Caliper .cali files.
//
// On-disk layout (one directory per store):
//
//   DIR/journal.rps       active write-ahead file (the only file ever
//                         appended to)
//   DIR/seg-NNNNNN.rps    sealed, immutable segments (renamed journals)
//   DIR/store.lock        flock'd single-writer lock (auto-released on
//                         process death)
//   DIR/quarantine/       torn tails and damaged segments moved aside
//                         by recovery/fsck — never silently dropped
//
// File format. Each file is an 8-byte magic header followed by framed
// records (all integers little-endian):
//
//   file   := "RPSTORE1" record*
//   record := u32 kRecordMagic | u32 len | u32 crc32 | body
//   body   := u64 seq | u8 type | payload            (len = |body|)
//
// crc32 covers the body (the shared CRC-32 in
// util/crc32.hpp). seq increases by exactly 1 per record within a file; the
// first record of a file may only jump forward (so fsck can drop a
// quarantined segment without invalidating its successors). Payloads
// are rperf::wire encodings written in self-contained mode — no
// process-global dictionary ids ever reach disk, so any process can
// decode any segment (the at-rest analogue of Caliper's .cali files,
// which likewise carry their own attribute definitions).
//
// Record types and the commit protocol:
//
//   RunHeader(1)      run_id + full config key/values (content address)
//   CellResult(2)     one (kernel, variant, tuning) terminal result,
//                     long-double checksum bits included
//   ProfileRegion(3)  a per-variant Caliper-style region profile
//   TraceSummary(4)   aggregate trace counters for the run
//   CommitMarker(5)   covers_seq (= seq of the immediately preceding
//                     record) + final flag + run_id
//   CounterSet(6)     one cell's hardware-counter totals (--hwc):
//                     measured perf_event_open or simulated values under
//                     PAPI preset names, plus source + multiplex window
//
// Records between markers are *uncommitted*. A marker only commits them
// if it CRC-validates, its covers_seq matches its predecessor, and its
// run_id matches the open run — a stale or relocated marker commits
// nothing (fail closed). Recovery therefore never depends on write
// ordering: whatever prefix of bytes survived, the committed state is
// exactly "records up to the last valid marker", and everything after
// is the torn tail, quarantined into DIR/quarantine/ and truncated away.
// fsync barriers (group commit every few markers, always at run finish)
// bound only the durability window, not consistency.
//
// Sealing: finish_run fsyncs the journal, atomic-renames it to the next
// seg-NNNNNN.rps, fsyncs the directory, appends the segment's entry (run
// directory + bloom filter over kernel names; see store/index.hpp) to
// the writer's MANIFEST.rps catalog, saves that crash-atomically, and
// starts a fresh journal. A sealed segment ends at its last commit
// marker. Sealed segments are immutable and their records must scan
// perfectly end-to-end; damage there is real disk corruption — readers
// throw CorruptError ("beyond repair"; fsck --repair quarantines the
// segment). The manifest is a pure index and strictly fail-open: a
// missing, unreadable or stale manifest degrades reads to a full scan,
// never to an error, and the next writer open rebuilds it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "instrument/profile.hpp"
#include "store/index.hpp"
#include "store/io.hpp"

namespace rperf::store {

/// Recoverable store-level failure (locked, not a store, append after a
/// latched I/O failure, API misuse).
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

/// Damage in a sealed (immutable) segment: the store cannot be trusted
/// without repair. rperf-report maps this to exit code 5.
class CorruptError : public StoreError {
 public:
  explicit CorruptError(const std::string& what) : StoreError(what) {}
};

inline constexpr char kFileMagic[8] = {'R', 'P', 'S', 'T', 'O', 'R', 'E', '1'};
inline constexpr std::uint32_t kRecordMagic = 0x31535052u;  // "RPS1"
/// Upper bound on a record body; a larger claimed len is corruption,
/// not data (prevents over-read/over-allocation on torn input).
inline constexpr std::uint32_t kMaxRecordBody = 64u << 20;
/// Record framing geometry (shared with the scan core and the fuzzer).
inline constexpr std::size_t kHeaderBytes = sizeof(kFileMagic);
inline constexpr std::size_t kFrameBytes = 12;  // magic + len + crc
inline constexpr std::size_t kMinBody = 9;      // seq + type

enum class RecordType : std::uint8_t {
  RunHeader = 1,
  CellResult = 2,
  ProfileRegion = 3,
  TraceSummary = 4,
  CommitMarker = 5,
  CounterSet = 6,
};

/// One terminal (kernel, variant, tuning) result as stored. The
/// checksum field round-trips its raw long-double bit pattern, so A/B
/// comparisons across stored runs stay bit-exact.
struct CellRecord {
  std::string kernel;
  std::string variant;
  std::string tuning;
  std::string status;
  double time_per_rep_sec = -1.0;
  long double checksum = 0.0L;
  std::int64_t problem_size = 0;
  std::int64_t reps = 0;
  std::uint32_t attempts = 1;
  std::string error;
};

struct StoredProfile {
  std::string variant;
  std::string tuning;
  cali::Profile profile;
};

/// One cell's hardware-counter totals as stored (--hwc runs). `source`
/// is "measured" (perf_event_open, multiplex-scaled) or "simulated"
/// (analytic model fallback); the enabled/running window is zero for
/// simulated records.
struct CounterRecord {
  std::string kernel;
  std::string variant;
  std::string tuning;
  std::string source;
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  double overhead_sec = 0.0;
  std::map<std::string, double> values;  ///< PAPI preset name -> total
};

/// A run reassembled from its committed records. Uncommitted records
/// never appear here.
struct StoredRun {
  std::string run_id;  ///< 16-hex content address of the run config
  std::map<std::string, std::string> config;
  std::vector<CellRecord> cells;
  std::vector<StoredProfile> profiles;
  std::vector<CounterRecord> counters;
  std::map<std::string, double> trace_summary;
  bool complete = false;  ///< final commit marker seen (run finished)
  std::string file;       ///< file the run's header lives in
};

/// Content address of a run config: FNV-1a-64 over the canonical sorted
/// "key=value\n" form, as 16 lowercase hex digits.
[[nodiscard]] std::string run_config_id(
    const std::map<std::string, std::string>& config);

/// Frame one record (exposed so tests and the fuzzer can build byte-
/// exact journals without a writer).
[[nodiscard]] std::string encode_record(RecordType type, std::uint64_t seq,
                                        const std::string& payload);

[[nodiscard]] std::string encode_cell_payload(const CellRecord& c);
/// Accepts a view so mmap'd segments decode in place (zero copy).
[[nodiscard]] CellRecord decode_cell_payload(std::string_view payload);

[[nodiscard]] std::string encode_counter_payload(const CounterRecord& c);
[[nodiscard]] CounterRecord decode_counter_payload(std::string_view payload);

struct WriterOptions {
  /// fsync the journal after this many commit markers (group commit).
  /// Consistency never depends on this — only the durability window.
  std::size_t sync_every_commits = 8;
};

/// What opening the writer had to recover.
struct RecoveryInfo {
  std::uint64_t quarantined_bytes = 0;
  std::string quarantine_file;  ///< empty when nothing was quarantined
};

/// What the most recent seal published (for the executor's log line).
struct SealInfo {
  std::string segment;            ///< empty until the first seal
  std::size_t runs_indexed = 0;   ///< runs in this segment's entry
  std::size_t manifest_runs = 0;  ///< total runs catalogued after update
  bool manifest_ok = false;
  std::string index_error;        ///< why the manifest was not updated
};

/// Single-writer append handle. Opening recovers the journal (a full
/// decode, then quarantine + truncate the torn tail), refuses a store
/// whose sealed segments fail a catalog-depth scan (store/scan.hpp:
/// every frame, CRC, sequence, marker and run-id check; payloads decoded
/// only as far as the manifest needs), and rewrites MANIFEST.rps when it
/// differs from the catalog rebuilt from that scan. All mutation throws
/// StoreError after the first I/O failure (the writer latches failed:
/// the file's tail state is unknown until the next recovery scan).
class StoreWriter {
 public:
  explicit StoreWriter(std::string dir, WriterOptions opt = {});
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  [[nodiscard]] const RecoveryInfo& recovery() const { return recovery_; }
  [[nodiscard]] const SealInfo& last_seal() const { return seal_info_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& run_id() const { return run_id_; }
  [[nodiscard]] std::size_t cells_committed() const {
    return cells_committed_;
  }
  /// Durability barriers issued so far, opening's recovery included:
  /// fsyncs of the journal, of the store directory, and of the files
  /// published into it (segment rename, manifest, quarantine).
  [[nodiscard]] std::size_t barriers() const { return barriers_; }

  /// Append a RunHeader and return the run's content address.
  std::string begin_run(const std::map<std::string, std::string>& config);
  void add_cell(const CellRecord& cell);
  void add_counters(const CounterRecord& counters);
  void add_profile(const std::string& variant, const std::string& tuning,
                   const cali::Profile& profile);
  void add_trace_summary(const std::map<std::string, double>& summary);
  /// Commit everything appended since the last marker; fsyncs every
  /// sync_every_commits markers.
  void commit();
  /// Final commit marker + fsync barrier + seal the journal into the
  /// next immutable segment.
  void finish_run();

 private:
  void append_record(RecordType type, const std::string& payload);
  void barrier();
  void seal();
  void recover_journal();
  void publish_manifest(SealInfo& info);

  std::string dir_;
  WriterOptions opt_;
  Manifest manifest_;  ///< every sealed segment; saved at open and seal
  AppendFile journal_;
  int lock_fd_ = -1;
  RecoveryInfo recovery_;
  SealInfo seal_info_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_data_seq_ = 0;  ///< seq of last non-marker record
  std::uint64_t next_segment_ = 0;
  std::size_t commits_since_sync_ = 0;
  std::size_t cells_committed_ = 0;
  std::size_t barriers_ = 0;
  std::size_t cells_pending_ = 0;
  std::string run_id_;  ///< open run, empty between runs
  bool failed_ = false;
};

/// Read-only view of a store. Tolerates (and reports) a torn journal
/// tail without modifying anything; throws CorruptError when a sealed
/// segment is damaged and StoreError when DIR holds no store.
class StoreReader {
 public:
  /// `threads` fans the cold segment scan across a small thread pool
  /// (0 = min(4, hardware)); the result is identical for any count.
  explicit StoreReader(const std::string& dir, unsigned threads = 0);

  [[nodiscard]] const std::vector<StoredRun>& runs() const { return runs_; }
  /// Latest run whose run_id starts with `prefix` (empty = latest run).
  [[nodiscard]] const StoredRun* find(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t journal_tail_bytes() const {
    return tail_bytes_;
  }
  [[nodiscard]] std::size_t segment_count() const { return segments_; }

 private:
  std::vector<StoredRun> runs_;
  std::uint64_t tail_bytes_ = 0;
  std::size_t segments_ = 0;
};

enum class FsckStatus {
  Clean,        ///< every byte accounted for, exit 0
  Recoverable,  ///< torn journal tail; --repair quarantines it, exit 4
  Corrupt,      ///< sealed segment damaged: beyond repair, exit 5
};

struct FsckReport {
  FsckStatus status = FsckStatus::Clean;
  std::size_t segments = 0;
  std::size_t runs = 0;
  std::size_t complete_runs = 0;
  std::size_t committed_cells = 0;
  std::uint64_t tail_bytes = 0;   ///< torn journal bytes found
  bool repaired = false;          ///< repair actions were taken
  std::vector<std::string> notes; ///< human-readable findings
};

/// Scan every file in the store and classify it. MANIFEST.rps is
/// compared with the catalog built from the scan; any difference is a
/// note and leaves the status unchanged (the index is a cache). With
/// `repair`, quarantine+truncate a torn journal tail, quarantine damaged
/// sealed segments (the committed runs in healthy files survive), and
/// rewrite a manifest that differs from the surviving segments.
/// `threads` parallelizes the segment scans (0 = min(4, hardware)).
/// Throws StoreError when DIR holds no store at all.
[[nodiscard]] FsckReport fsck(const std::string& dir, bool repair,
                              unsigned threads = 0);

}  // namespace rperf::store
