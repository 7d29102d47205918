// Executor — drives a suite run: kernel x variant sweep, Caliper-substitute
// profiling, checksum validation, and text reports.
//
// Mirroring the paper's integration, one profile is produced per variant
// (one RAJAPerf run = one variant + one tuning), each containing a region
// per kernel with attributed analytic metrics and run metadata.
//
// Execution is fault tolerant: each (kernel, variant, tuning) cell runs in
// a guarded scope recording a RunStatus instead of aborting the sweep.
// Exceptions become Failed, NaN/Inf checksums become ChecksumInvalid, and
// budget violations become TimedOut; with keep_going (default) the sweep
// continues and failed cells simply show their status in the reports.
// Failed/ChecksumInvalid cells are retried with exponential backoff up to
// RunParams::retries extra attempts. Every terminal cell is appended to
// <output_dir>/progress.jsonl, and RunParams::resume restores cells already
// Passed there instead of re-running them — an interrupted multi-hour sweep
// loses at most one kernel.
//
// With RunParams::isolate != None, cells execute in worker processes
// supervised by a sandbox::WorkerPool instead of in-process: a crash, OOM,
// or hang is contained to the worker and decoded into RunStatus::Crashed /
// OutOfMemory / Killed, forensics (signal, stderr tail, backtrace, rusage)
// are appended to <output_dir>/crashes.jsonl, and a cell that crashes
// RunParams::quarantine_after times is quarantined — skipped with a
// recorded reason, including across --resume runs. --workers N runs N
// persistent workers; without it, one disposable worker is replaced per
// cell (--isolate cell) or per kernel (--isolate kernel). Workers send
// each result back as an rperf::wire record and the parent folds it into
// the same channels, checkpoint, and reports as in-process execution, so
// the two modes produce identical outputs for passing sweeps.
//
// With RunParams::trace, the process-wide TraceSink records the whole
// sweep — a "sweep" span, one span per cell, per-thread spans from traced
// OpenMP foralls, and counter tracks — including sandboxed workers, which
// send their trace chunk back over the pool protocol with a fork-time
// clock offset. write_trace() merges every chunk into one Chrome/Perfetto
// timeline, and the sink's self-accounted cost lands in the
// "trace_overhead_pct" run metadata.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "counters/perf_event.hpp"
#include "instrument/channel.hpp"
#include "instrument/profile.hpp"
#include "instrument/trace_sink.hpp"
#include "sandbox/pool.hpp"
#include "store/store.hpp"
#include "suite/kernel_base.hpp"
#include "suite/registry.hpp"
#include "suite/run_params.hpp"

namespace rperf::suite {

struct RunResult {
  std::string kernel;
  GroupID group = GroupID::Basic;
  VariantID variant = VariantID::Base_Seq;
  std::size_t tuning = 0;
  std::string tuning_name = "default";
  double time_per_rep_sec = -1.0;
  long double checksum = 0.0L;
  Index_type problem_size = 0;
  Index_type reps = 0;
  RunStatus status = RunStatus::Passed;
  std::string error;  ///< diagnostic for non-Passed statuses
  int attempts = 1;   ///< executions performed (> 1 after retries)
  bool restored = false;  ///< true when taken from progress.jsonl (--resume)

  // Setup-cost observability (rperf::mem): milliseconds spent initializing
  // data / computing checksums across all passes, and how many of the
  // working set's allocations the pool free lists served.
  double setup_ms = 0.0;
  double checksum_ms = 0.0;
  std::uint64_t pool_hits = 0;

  /// Hardware-counter totals for this cell (RunParams::hwc): measured via
  /// perf_event_open when available, simulated from the analytic model
  /// otherwise (hwc.source says which); empty() when --hwc was off or the
  /// cell never completed.
  hwc::Sample hwc;
};

class Executor {
 public:
  explicit Executor(RunParams params);

  /// Run every (kernel, variant) pair passing the filters.
  void run();

  [[nodiscard]] const std::vector<RunResult>& results() const {
    return results_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<KernelBase>>& kernels()
      const {
    return kernels_;
  }
  [[nodiscard]] KernelBase* find_kernel(const std::string& name) const;

  /// One profile per executed (variant, tuning), with metadata — exactly
  /// the paper's "a single RAJAPerf run generates a Caliper profile
  /// containing one variant and one tuning". Only (variant, tuning) pairs
  /// with at least one passed cell produce a profile.
  [[nodiscard]] std::vector<cali::Profile> profiles() const;
  /// Write profiles to params.output_dir as <variant>.<tuning>.cali.json.
  void write_profiles() const;

  /// Per-kernel timing table across variants (seconds per repetition);
  /// non-passed cells show their status instead of a time.
  [[nodiscard]] std::string timing_report() const;
  /// Per-kernel checksum table across variants.
  [[nodiscard]] std::string checksum_report() const;
  /// True when all variants of every kernel agree within tolerance;
  /// details (when non-null) receives a description of mismatches.
  [[nodiscard]] bool checksums_consistent(std::string* details) const;

  // ----- failure taxonomy -----
  /// Cell counts per terminal status (zero-count statuses included).
  [[nodiscard]] std::map<RunStatus, std::size_t> status_counts() const;
  /// True when every cell Passed (restored cells count as passed).
  [[nodiscard]] bool all_passed() const;
  /// One line per non-passed cell plus a summary count line.
  [[nodiscard]] std::string status_report() const;
  /// Path of the checkpoint file ("" when output_dir is unset).
  [[nodiscard]] std::string progress_path() const;
  /// Path of the crash-forensics sidecar ("" when output_dir is unset).
  [[nodiscard]] std::string crashes_path() const;

  // ----- tracing (RunParams::trace) -----
  /// Write the merged Chrome/Perfetto timeline (main process + every
  /// sandboxed worker) recorded by the last run() to `path`.
  void write_trace(const std::string& path) const;
  /// Tracing cost as a percent of the sweep's wall time (0 when untraced).
  [[nodiscard]] double trace_overhead_pct() const {
    return trace_overhead_pct_;
  }
  /// Trace chunks received from sandboxed workers during the last run().
  [[nodiscard]] std::size_t worker_trace_count() const {
    return worker_traces_.size();
  }

  // ----- profile store (RunParams::store_dir) -----
  /// Content address of the run landed in the store ("" when --store is
  /// off or the store failed before begin_run).
  [[nodiscard]] const std::string& store_run_id() const {
    return store_run_id_;
  }
  /// Cells durably committed to the store by the last run().
  [[nodiscard]] std::size_t store_cells() const {
    return store_writer_ ? store_writer_->cells_committed() : 0;
  }
  /// First store failure ("" when the store worked). The run itself
  /// never fails because the store did: results still land in --outdir.
  [[nodiscard]] const std::string& store_error() const {
    return store_error_;
  }

  // ----- hardware counters (RunParams::hwc) -----
  /// Where the run's counter values came from: "measured", "simulated",
  /// "mixed" (some cells of the run each), or "" when --hwc was off or no
  /// cell produced a sample.
  [[nodiscard]] std::string hwc_source() const;
  /// Why counters degraded to the simulator ("" while fully measured).
  [[nodiscard]] const std::string& hwc_reason() const { return hwc_reason_; }
  /// Counter-read cost as a percent of the sweep's wall time (0 when
  /// --hwc is off), gated < 5% by the perf_hwc_overhead smoke test.
  [[nodiscard]] double hwc_overhead_pct() const { return hwc_overhead_pct_; }

  // ----- worker pool (RunParams::isolate != None) -----
  /// Supervisor statistics of the last sandboxed run (zeroed otherwise).
  [[nodiscard]] const sandbox::PoolStats& pool_stats() const {
    return pool_stats_;
  }
  /// True when the pool could not keep any worker alive and the run fell
  /// back to in-process execution (also recorded as the
  /// "sandbox_degraded" profile metadata flag).
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  struct Cell {
    KernelBase* kernel = nullptr;
    VariantID vid = VariantID::Base_Seq;
    std::size_t tuning = 0;
    std::string tuning_name;
  };

  /// Execute one cell (single attempt) into `channel`, classifying the
  /// outcome; fills time/checksum fields of `r` on success.
  RunStatus run_cell_once(const Cell& cell, cali::Channel& channel,
                          RunResult& r);
  /// Run `cell` in this process until it passes or its retries run out,
  /// merging a passing attempt into its variant's profile. `consumed`
  /// counts attempts already spent elsewhere (a pool that degraded).
  void run_cell_in_process(const Cell& cell, int consumed, RunResult& r);
  /// A result for `cell` with only its identity fields filled in.
  [[nodiscard]] static RunResult start_result(const Cell& cell);
  /// Finalize every cell that must not execute — --resume restores it,
  /// or crashes quarantined it — and return the rest in sweep order.
  /// Runs once before either execution path, so the checkpoint holds
  /// every restored cell before the first cell executes, and a stop or
  /// interrupt can only skip cells that never passed.
  std::vector<const Cell*> settle_unexecuted(
      const std::vector<Cell>& cells,
      const std::map<std::string, RunResult>& prior);
  /// Why unstarted cells are skipped; "" while the sweep runs on.
  [[nodiscard]] std::string skip_reason() const;
  /// Record a terminal cell (results, checkpoint, store, trace counters);
  /// latches stopped_ on a failure under --no-keep-going.
  void finalize(const RunResult& r);
  /// Sleep the retry backoff that follows `consumed` attempts.
  void retry_backoff(int consumed) const;
  /// Append one forensics record to crashes.jsonl (best-effort).
  void append_crash_line(json::Object o) const;
  /// Every cell runs in this process.
  void run_in_process(const std::vector<const Cell*>& cells);
  /// Cells run in sandbox::WorkerPool workers: N persistent ones under
  /// --workers N, otherwise one disposable worker per cell or kernel.
  /// Falls back to in-process execution when no worker can be spawned.
  void run_pooled(const std::vector<const Cell*>& cells);
  /// Body executed inside a pooled worker for one job payload; returns
  /// the wire-encoded cell result with the post-job injector state.
  std::string worker_run_cell(const std::string& payload);
  void append_progress(const RunResult& r);
  /// Land one terminal cell in the profile store (no-op when off); a
  /// StoreError latches the store disabled with a warning — durability
  /// loss must not take down the sweep.
  void store_append_cell(const RunResult& r);
  /// The canonical config map the store content-addresses a run by.
  [[nodiscard]] std::map<std::string, std::string> store_config() const;
  [[nodiscard]] std::map<std::string, RunResult> load_progress() const;
  /// Cumulative crash counts per cell key from crashes.jsonl (for the
  /// quarantine decision on --resume).
  [[nodiscard]] std::map<std::string, int> load_crash_counts() const;

  RunParams params_;
  std::vector<std::unique_ptr<KernelBase>> kernels_;
  /// Keyed by (variant, tuning name); entries exist only for pairs with at
  /// least one passed cell.
  std::map<std::pair<VariantID, std::string>, cali::Channel> channels_;
  std::vector<RunResult> results_;
  std::map<std::string, int> crash_counts_;
  /// A failure under --no-keep-going stopped the sweep.
  bool stopped_ = false;
  /// Full checkpoint contents, rewritten crash-atomically per cell
  /// (tmp + fsync + rename) so the file on disk is always a complete
  /// prefix of terminal cells — never a torn final line.
  std::string progress_buffer_;
  std::unique_ptr<store::StoreWriter> store_writer_;
  std::string store_run_id_;
  std::string store_error_;
  sandbox::PoolStats pool_stats_;
  bool degraded_ = false;
  std::string hwc_reason_;
  double hwc_overhead_pct_ = 0.0;

  /// Sweep epoch for the monotonic t_ms stamped on progress/crash records.
  std::chrono::steady_clock::time_point run_start_ =
      std::chrono::steady_clock::now();
  cali::TraceData main_trace_;
  std::vector<cali::TraceData> worker_traces_;
  double run_wall_sec_ = 0.0;
  double trace_overhead_pct_ = 0.0;
};

}  // namespace rperf::suite
