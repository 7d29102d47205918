// TraceSink — the low-overhead, thread-aware tracing service behind
// `rajaperf --trace` (the Caliper event-trace + timeline services
// substitute).
//
// Where `Channel` aggregates region visits into a tree, the sink records
// *fixed-size span records over an interned region-name table in
// per-thread buffers*, so OpenMP worker threads inside a `port::forall`
// parallel region can each record their own span without contending on a
// shared log. Records are appended complete (merged begin/end) at region
// close; buffers are harvested by `flush()` into a `TraceData` snapshot
// that the Chrome/Perfetto exporter (trace_export.hpp) turns into a
// timeline.
//
// Design points:
//   * `enabled()` is one relaxed atomic load — the disabled hot path costs
//     a branch. All record paths early-return when disabled.
//   * Region names are interned once (mutex-guarded map); records carry a
//     uint32 id, so appends never copy strings.
//   * Each thread owns a lazily registered buffer with a hard record cap;
//     past the cap, records are counted as dropped rather than grown —
//     a runaway sweep cannot OOM the tracer.
//   * Per-parallel-instance thread stats (max/mean thread time) aggregate
//     per region, giving the load-imbalance metrics the per-thread
//     measurement exists for.
//   * The sink accounts for its own cost: a calibration at enable() time
//     prices one record append, and flush/merge time is measured directly;
//     `overhead_sec()` is the basis of the run's `trace_overhead_pct`.
//   * Forked sandbox workers call `rezero_after_fork()`: inherited records
//     are dropped, the clock re-zeroes, and the fork-time offset from the
//     parent epoch is kept so one merged timeline covers all pids.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rperf::cali {

/// One fixed-size trace record. `name` indexes the sink's interned name
/// table; timestamps are seconds since the owning process's trace epoch.
struct TraceRecord {
  enum class Kind : std::uint8_t {
    Span,        ///< a closed begin/end region on one thread
    ThreadSpan,  ///< one thread's share of a parallel region
    Counter,     ///< a sampled counter value (t1 unused, payload in value)
  };
  std::uint32_t name = 0;
  std::uint32_t tid = 0;  ///< logical thread id (registration order; 0 first)
  Kind kind = Kind::Span;
  std::int32_t depth = 0;  ///< nesting depth at open (Span only)
  double t0 = 0.0;
  double t1 = 0.0;
  double value = 0.0;
};

/// Aggregated per-region thread statistics across parallel instances.
struct RegionThreadStats {
  std::uint64_t instances = 0;  ///< parallel regions recorded
  double sum_max_sec = 0.0;     ///< sum over instances of slowest thread
  double sum_mean_sec = 0.0;    ///< sum over instances of mean thread time
  int max_threads = 0;          ///< widest team observed

  /// Load imbalance: slowest-thread time over mean thread time, aggregated
  /// across instances. 1.0 = perfectly balanced; 2.0 = the critical path
  /// is twice the average.
  [[nodiscard]] double imbalance() const {
    return sum_mean_sec > 0.0 ? sum_max_sec / sum_mean_sec : 1.0;
  }
};

/// Snapshot of one process's trace, as drained by TraceSink::flush().
/// Serializes compactly for the sandbox pipe so workers can stream their
/// chunk to the parent, which merges chunks into one timeline.
struct TraceData {
  int pid = 0;
  std::string process_name;
  /// Seconds between the merged timeline's epoch (the parent's) and this
  /// chunk's local epoch; add to every timestamp when merging.
  double clock_offset_sec = 0.0;
  std::vector<std::string> names;  ///< interned table; records index this
  std::vector<TraceRecord> records;
  std::map<std::string, RegionThreadStats> region_stats;
  std::uint64_t dropped = 0;
  double overhead_sec = 0.0;  ///< self-accounted tracing cost
};

class TraceSink {
 public:
  /// Process-wide instance.
  [[nodiscard]] static TraceSink& instance();

  /// Start a fresh trace: clears all buffers, re-zeroes the clock, and
  /// runs the append-cost calibration. Safe to call repeatedly.
  void enable();
  /// Stop recording. Buffered records survive until the next enable() or
  /// flush().
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Seconds since the trace epoch (monotonic).
  [[nodiscard]] double now_sec() const;

  /// Intern a region name; stable for the life of the sink.
  [[nodiscard]] std::uint32_t intern(const std::string& name);

  // ----- recording (no-ops when disabled) -----
  /// Open a span on the calling thread (per-thread open stack).
  void begin(std::uint32_t name);
  /// Close the innermost open span on the calling thread, appending one
  /// Span record. Unmatched ends are ignored (the sink never throws on
  /// the hot path; Channel does the strict validation).
  void end();
  /// Record one thread's share of a parallel region (forall traced path).
  void thread_span(std::uint32_t name, double t0, double t1);
  /// Sample a counter value at the current time.
  void counter(std::uint32_t name, double value);
  /// Record per-instance thread stats for a region (encountering thread).
  void note_parallel_instance(std::uint32_t name, double max_sec,
                              double mean_sec, int threads);
  /// Aggregated thread stats for a region so far (zeroes when untraced).
  [[nodiscard]] RegionThreadStats instance_stats(std::uint32_t name) const;

  /// Logical id of the calling thread (registers its buffer on first use).
  [[nodiscard]] std::uint32_t thread_id();
  /// Interned name of the calling thread's innermost open span, or the
  /// "(untracked)" sentinel when nothing is open. Lets a parallel loop
  /// name its per-thread spans after the region that encloses it.
  [[nodiscard]] std::uint32_t current_open_name();
  /// Interned id of the "(untracked)" sentinel region.
  [[nodiscard]] static std::uint32_t intern_untracked();

  // ----- fork support (sandboxed workers) -----
  /// In a freshly forked child: drop inherited records, re-zero the clock,
  /// and remember the offset from the parent's epoch so the parent can
  /// splice this process's chunk onto its own timeline.
  void rezero_after_fork(const std::string& process_name);

  // ----- harvest -----
  /// Drain every thread's buffer into a snapshot. Recording may continue
  /// afterwards (records land in the next flush). Flush cost is added to
  /// the *next* snapshot's overhead accounting.
  [[nodiscard]] TraceData flush();

  /// Records appended since enable() (approximate, relaxed counters).
  [[nodiscard]] std::uint64_t record_count() const {
    return appended_.load(std::memory_order_relaxed);
  }
  /// Estimated seconds this process has spent tracing: calibrated
  /// per-record cost times records appended, plus measured flush time.
  [[nodiscard]] double overhead_sec() const;

  /// Hard per-thread record cap (drops past this, counted).
  static constexpr std::size_t kMaxRecordsPerThread = 1u << 19;

 private:
  TraceSink() = default;

  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::mutex mutex;  // appends (owner thread) vs. flush (main thread)
    std::vector<TraceRecord> records;
    std::vector<std::pair<std::uint32_t, double>> open;  // begin stack
    std::uint64_t dropped = 0;
  };

  [[nodiscard]] ThreadBuffer& local_buffer();
  void append(ThreadBuffer& buf, const TraceRecord& rec);
  void calibrate();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> epoch_ns_{0};  // steady_clock ns at enable
  double parent_offset_sec_ = 0.0;          // set by rezero_after_fork
  std::string process_name_ = "rajaperf";

  mutable std::mutex registry_mutex_;  // buffers_ + names_ + stats_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::map<std::uint32_t, RegionThreadStats> stats_;

  double per_record_cost_sec_ = 0.0;
  double flush_cost_sec_ = 0.0;
};

/// RAII span on the process-wide sink; no-op when tracing is disabled.
class TraceSpan {
 public:
  explicit TraceSpan(const std::string& name) {
    TraceSink& sink = TraceSink::instance();
    if (sink.enabled()) {
      active_ = true;
      sink.begin(sink.intern(name));
    }
  }
  ~TraceSpan() {
    if (active_) TraceSink::instance().end();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace rperf::cali
