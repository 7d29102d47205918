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
// the same profiles, checkpoint, and reports as in-process execution, so
// the two modes produce identical outputs for passing sweeps.
//
// With RunParams::trace, the process-wide TraceSink records the whole
// sweep — a "sweep" span, one span per cell, per-thread spans from traced
// OpenMP foralls, and counter tracks — including sandboxed workers, which
// send their trace chunk back over the pool protocol with a fork-time
// clock offset. write_trace() merges every chunk into one Chrome/Perfetto
// timeline, and the sink's self-accounted cost lands in the
// "trace_overhead_pct" run metadata.
//
// executor.cpp holds the plan -> settle -> run -> finalize flow and
// in-process execution. Each format or decision the flow touches has one
// owner: checkpoint.hpp (progress.jsonl, crashes.jsonl), cell_record.hpp
// (worker wire records, failure classification), run_metadata.hpp
// (profile metadata, the store landing), reports.hpp (text reports,
// checksum agreement) and pooled.cpp (worker-pool execution).
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/channel.hpp"
#include "instrument/profile.hpp"
#include "instrument/trace_sink.hpp"
#include "sandbox/pool.hpp"
#include "suite/checkpoint.hpp"
#include "suite/kernel_base.hpp"
#include "suite/registry.hpp"
#include "suite/reports.hpp"
#include "suite/run_metadata.hpp"
#include "suite/run_params.hpp"
#include "suite/run_result.hpp"

namespace rperf::suite {

/// The order in which a pooled sweep hands its cells to the worker pool,
/// as indices into `cores`: the cores each cell occupies (Job::cores), in
/// plan order. A persistent pool (--workers N) gets its cells narrowest
/// first, by a stable sort: every Seq cell in plan order, then every
/// OpenMP cell in plan order. Seq cells then fill the cores instead of
/// draining at each kernel's OpenMP cells, which need the whole budget.
/// A disposable pool keeps plan order: --isolate kernel needs a kernel's
/// cells contiguous so that each kernel gets exactly one fresh worker.
[[nodiscard]] std::vector<std::size_t> pooled_dispatch_order(
    const std::vector<int>& cores, bool persistent);

/// The sleep before a cell's next attempt once `consumed` attempts have
/// failed: `backoff_ms` after the first, doubling per attempt until it
/// reaches the pool's 2 s respawn cap. A base above the cap stays as
/// given; a base of 0 or less never sleeps. Defined for every `consumed`,
/// so a large --retries can neither overflow the shift nor sleep for hours.
[[nodiscard]] std::chrono::milliseconds retry_delay(int backoff_ms,
                                                    int consumed);

class Executor {
 public:
  explicit Executor(RunParams params);

  /// Run every (kernel, variant) pair passing the filters.
  void run();

  [[nodiscard]] const std::vector<RunResult>& results() const {
    return results_;
  }
  [[nodiscard]] const Kernels& kernels() const { return kernels_; }
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
  [[nodiscard]] std::string timing_report() const {
    return suite::timing_report(results_, kernels_);
  }
  /// Per-kernel checksum table across variants.
  [[nodiscard]] std::string checksum_report() const {
    return suite::checksum_report(results_, kernels_);
  }
  /// True when all variants of every kernel agree within tolerance;
  /// details (when non-null) receives a description of mismatches.
  [[nodiscard]] bool checksums_consistent(std::string* details) const {
    return suite::checksums_consistent(results_, kernels_,
                                       params_.checksum_tolerance, details);
  }

  // ----- failure taxonomy -----
  /// Cell counts per terminal status (zero-count statuses included).
  [[nodiscard]] std::map<RunStatus, std::size_t> status_counts() const {
    return count_statuses(results_);
  }
  /// True when every cell Passed (restored cells count as passed).
  [[nodiscard]] bool all_passed() const {
    return status_counts().at(RunStatus::Passed) == results_.size();
  }
  /// One line per non-passed cell plus a summary count line.
  [[nodiscard]] std::string status_report() const {
    return suite::status_report(results_);
  }
  /// Path of the checkpoint file ("" when output_dir is unset).
  [[nodiscard]] std::string progress_path() const {
    return checkpoint_.progress_path();
  }
  /// Path of the crash-forensics sidecar ("" when output_dir is unset).
  [[nodiscard]] std::string crashes_path() const {
    return checkpoint_.crashes_path();
  }

  // ----- tracing (RunParams::trace) -----
  /// Write the merged Chrome/Perfetto timeline (main process + every
  /// sandboxed worker) recorded by the last run() to `path`.
  void write_trace(const std::string& path) const;
  /// Tracing cost as a percent of the sweep's wall time (0 when untraced).
  [[nodiscard]] double trace_overhead_pct() const {
    return facts_.trace_overhead_pct;
  }
  /// Trace chunks received from sandboxed workers during the last run().
  [[nodiscard]] std::size_t worker_trace_count() const {
    return worker_traces_.size();
  }

  // ----- profile store (RunParams::store_dir) -----
  /// Content address of the run landed in the store ("" when --store is
  /// off or the store failed before begin_run).
  [[nodiscard]] const std::string& store_run_id() const {
    return store_.run_id();
  }
  /// Cells durably committed to the store by the last run().
  [[nodiscard]] std::size_t store_cells() const { return store_.cells(); }
  /// Durability barriers (fsyncs) the store issued during the last run().
  [[nodiscard]] std::size_t store_barriers() const {
    return store_.barriers();
  }
  /// First store failure ("" when the store worked). The run itself
  /// never fails because the store did: results still land in --outdir.
  [[nodiscard]] const std::string& store_error() const {
    return store_.error();
  }

  // ----- hardware counters (RunParams::hwc) -----
  /// Where the run's counter values came from: "measured", "simulated",
  /// "mixed" (some cells of the run each), or "" when --hwc was off or no
  /// cell produced a sample.
  [[nodiscard]] std::string hwc_source() const {
    return vote_hwc_source(results_, [](const RunResult&) { return true; });
  }
  /// Why counters degraded to the simulator ("" while fully measured).
  [[nodiscard]] const std::string& hwc_reason() const {
    return facts_.hwc_reason;
  }
  /// Counter-read cost as a percent of the sweep's wall time (0 when
  /// --hwc is off), gated < 5% by the perf_hwc_overhead smoke test.
  [[nodiscard]] double hwc_overhead_pct() const {
    return facts_.hwc_overhead_pct;
  }

  // ----- worker pool (RunParams::isolate != None) -----
  /// Supervisor statistics of the last sandboxed run (zeroed otherwise).
  [[nodiscard]] const sandbox::PoolStats& pool_stats() const {
    return facts_.pool;
  }
  /// True when the pool could not keep any worker alive and the run fell
  /// back to in-process execution (also recorded as the
  /// "sandbox_degraded" profile metadata flag).
  [[nodiscard]] bool degraded() const { return facts_.degraded; }

 private:
  struct Cell {
    KernelBase* kernel = nullptr;
    VariantID vid = VariantID::Base_Seq;
    std::size_t tuning = 0;
    std::string tuning_name;
  };

  /// Execute one cell (single attempt) into `channel` under its trace
  /// span, classifying the outcome; fills time/checksum fields of `r` on
  /// success.
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
  /// Sample the counter tracks (cumulative pool hits and injected faults)
  /// onto the trace timeline, in step with the finished cells' spans.
  static void sample_trace_counters();
  /// Sleep the retry backoff that follows `consumed` attempts.
  void retry_backoff(int consumed) const;
  /// Every cell runs in this process.
  void run_in_process(const std::vector<const Cell*>& cells);
  /// Cells run in sandbox::WorkerPool workers: N persistent ones under
  /// --workers N, otherwise one disposable worker per cell or kernel,
  /// handed over in pooled_dispatch_order. Falls back to in-process
  /// execution when no worker can be spawned. (pooled.cpp)
  void run_pooled(const std::vector<const Cell*>& cells);
  /// Body executed inside a pooled worker for one job payload; returns
  /// the wire-encoded cell result with the post-job injector state.
  std::string worker_run_cell(const std::string& payload);

  RunParams params_;
  Kernels kernels_;
  /// Entries exist only for (variant, tuning) pairs with at least one
  /// passed cell. Under --resume a pair starts from its on-disk profile,
  /// which holds the restored cells.
  Profiles profiles_;
  std::vector<RunResult> results_;
  /// Each cell's crash record, restored from crashes.jsonl on --resume;
  /// worker deaths in this run add to its count.
  std::map<std::string, CellCrashes> crash_history_;
  /// A failure under --no-keep-going stopped the sweep.
  bool stopped_ = false;
  Checkpoint checkpoint_;
  RunStore store_;
  RunFacts facts_;
  cali::TraceData main_trace_;
  std::vector<cali::TraceData> worker_traces_;
};

}  // namespace rperf::suite
