// Deterministic fault injector for the suite's failure paths.
//
// Production benchmark sweeps die in ways that are hard to reproduce on
// demand: an allocation failure at a large size factor, an exception from
// one variant, a silently corrupted result, a kernel that runs far past
// its budget. The injector arms any of those failures for specific
// kernels from a compact config string, so every recovery path in the
// executor (isolation, retry, timeout, checkpoint/resume) is testable:
//
//   faults=alloc@Stream_TRIAD:1,throw@Basic_DAXPY,slow@Lcals_HYDRO_2D:50ms,corrupt@Polybench_ADI
//
// Grammar (the leading "faults=" prefix is optional):
//   spec   := entry (',' entry)*
//   entry  := kind '@' kernel [':' arg]
//   kind   := 'alloc' | 'throw' | 'slow' | 'corrupt'
//           | 'segv' | 'abort' | 'oom' | 'hang'
//           | 'protocorrupt'              (worker-pool wire fault)
//           | 'shortwrite' | 'enospc' | 'fsyncfail' | 'tornseg'
//           | 'idxcorrupt'                 (profile-store I/O faults)
//   kernel := full kernel name (e.g. Stream_TRIAD) or '*' for any;
//             for the I/O kinds this position names the file class
//             being written ('journal', 'segment', 'progress' for the
//             suite's checkpoint, or — for idxcorrupt — 'index') instead
//             of a kernel
//   arg    := COUNT        fire at most COUNT times, then disarm
//                          (alloc/throw/corrupt; default: unlimited)
//           | DELAY 'ms'   slow: injected delay per measurement pass
//           | 'p' PERCENT  fire each occurrence with PERCENT% probability,
//                          driven by the seeded generator (deterministic
//                          for a fixed seed)
//
// Hooks fire only inside a ScopedCell (established by KernelBase::execute),
// so instrumentation-free callers (benches, examples) are never affected.
// All occurrence decisions come from armed counters plus a seeded LCG —
// no wall clock, no global randomness — so a given (spec, seed) pair
// always fails the exact same cells.
//
// The segv/abort/oom/hang kinds are PROCESS-FATAL: they kill or wedge the
// process that executes the kernel (SIGSEGV, SIGABRT, abrupt _Exit after
// exhausting allocations, a long sleep loop). They exist to exercise the
// rperf::sandbox worker-process path (--isolate=kernel|cell) and must not
// be armed for in-process execution unless dying is the desired outcome.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rperf::faults {

enum class FaultKind {
  Alloc,
  Throw,
  Slow,
  Corrupt,
  // Process-fatal kinds (sandbox coverage; see header comment).
  Segv,
  Abort,
  Oom,
  Hang,
  // Wire-level kind (worker-pool coverage): queried explicitly by the
  // pooled worker loop via fire_wire_fault, never by on_lifecycle, so it
  // is inert outside isolated runs. 'protocorrupt' corrupts the CRC of
  // the worker's next result frame (the supervisor must detect the torn
  // record instead of mis-parsing it). It leaves the worker doomed, so it
  // counts as process-fatal. A wedged worker needs no wire fault of its
  // own: 'hang' is one, and the supervisor's wall deadline reclaims it.
  ProtocolCorrupt,
  // Store-I/O kinds (rperf::store coverage): queried explicitly by the
  // profile store's file layer via fire_io_fault, beneath the record
  // framing, so every torn-write recovery path is drivable from the
  // fault grammar. 'shortwrite' makes the next append persist only a
  // prefix of its bytes; 'enospc' fails it outright (disk full);
  // 'fsyncfail' fails the durability barrier after the data landed;
  // 'tornseg' persists a prefix AND corrupts a byte inside it (a torn,
  // scribbled sector). None are process-fatal: the store latches failed
  // and the suite continues without durability. Against the suite's
  // 'progress' checkpoint the same kinds fail the run instead.
  ShortWrite,
  Enospc,
  FsyncFail,
  TornSeg,
  // 'idxcorrupt' (target class "index") scribbles a byte inside the
  // MANIFEST.rps the seal just saved. The *records* stay intact, so this
  // must never surface as an error: readers are required to detect the
  // damaged index, warn, and fall back to a full scan (the index
  // fail-open contract), and the next writer open rewrites the manifest.
  // Not process-fatal; the seal itself succeeds.
  IndexCorrupt,
};

/// True for kinds that terminate or wedge the executing process.
[[nodiscard]] bool is_process_fatal(FaultKind k);

[[nodiscard]] std::string to_string(FaultKind k);

struct FaultSpec {
  FaultKind kind = FaultKind::Throw;
  std::string kernel = "*";   ///< full kernel name or "*" (any kernel)
  int budget = -1;            ///< remaining firings; -1 = unlimited
  int delay_ms = 0;           ///< Slow: injected delay per pass
  double probability = 1.0;   ///< chance each occurrence fires (p-form)
};

/// Thrown by the Throw fault (and classified as RunStatus::Failed).
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Injector {
 public:
  /// Parse a fault spec string; throws std::invalid_argument on malformed
  /// input. An empty spec (or bare "faults=") yields no entries.
  [[nodiscard]] static std::vector<FaultSpec> parse(const std::string& spec);

  /// Arm the injector from a spec string. Replaces any previous config.
  void configure(const std::string& spec, std::uint32_t seed = 7u);
  /// Disarm everything.
  void reset();
  [[nodiscard]] bool active() const { return !specs_.empty(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  /// Faults fired by this process since configure() — includes external
  /// fires folded in via note_external_fire. Feeds the trace's
  /// "fault_fires" counter track. (Deliberately outside serialize_state:
  /// workers report their own counters instead.)
  [[nodiscard]] std::uint64_t fires() const { return fires_; }

  // ----- hooks (no-ops unless armed and inside a matching ScopedCell) -----
  /// Called at the top of KernelBase::execute; throws InjectedFault when a
  /// 'throw' fault fires for the kernel.
  void on_lifecycle(const std::string& kernel);
  /// Called by data_utils initialization; throws std::bad_alloc when an
  /// 'alloc' fault fires for the current cell.
  void on_alloc(std::size_t bytes);
  /// Milliseconds of delay to inject before a measurement pass (0 = none).
  [[nodiscard]] int slow_delay_ms(const std::string& kernel);
  /// Returns a corrupted (NaN) checksum when a 'corrupt' fault fires,
  /// otherwise returns `checksum` unchanged.
  [[nodiscard]] long double corrupt_checksum(const std::string& kernel,
                                             long double checksum);
  /// Explicit query for the wire-level kind (ProtocolCorrupt): true when
  /// an armed spec of `kind` fires for `kernel`. Called by the pooled
  /// worker loop around each job; the act of sabotaging the wire is the
  /// caller's job (WorkerPool exposes the control), keeping the injector
  /// free of transport knowledge.
  [[nodiscard]] bool fire_wire_fault(FaultKind kind,
                                     const std::string& kernel);
  /// Explicit query for the store-I/O kinds (ShortWrite / Enospc /
  /// FsyncFail / TornSeg): true when an armed spec of `kind` fires for
  /// `target` — the store file class ("journal" or "segment"), matched
  /// against the spec's kernel position ('*' matches both). Called by
  /// rperf::store's file layer around each write/fsync; sabotaging the
  /// file is the caller's job, keeping the injector free of I/O
  /// knowledge. Unlike on_lifecycle these fire outside any ScopedCell.
  [[nodiscard]] bool fire_io_fault(FaultKind kind, const std::string& target);

  // ----- state transfer (sandboxed execution) -----
  // A forked worker inherits the injector's armed state; these let the
  // parent fold the worker's consumption back in so budgets and the
  // probability stream progress across the whole sweep exactly as they
  // would in-process.
  /// Compact textual form of (rng state, per-spec remaining budgets).
  [[nodiscard]] std::string serialize_state() const;
  /// Restore state captured by serialize_state(); a spec-count mismatch
  /// (different configure) is ignored rather than corrupting budgets.
  /// Only for a worker adopting the state its job was dispatched with.
  void deserialize_state(const std::string& state);
  /// Fold a worker's post-job state back into this (parent) injector:
  /// take its rng state, but keep the per-spec minimum budget. A result
  /// dispatched before a crash carries a budget note_external_fire has
  /// since spent; overwriting would re-arm that fault.
  void fold_result_state(const std::string& state);
  /// Record that a process-fatal fault of `kind` definitionally fired for
  /// `kernel` (the worker died that way and could not report): consume one
  /// budget unit from the first matching armed spec.
  void note_external_fire(FaultKind kind, const std::string& kernel);

  // ----- cell scope (used by ScopedCell) -----
  void begin_cell(const std::string& kernel) { current_cell_ = kernel; }
  void end_cell() { current_cell_.clear(); }
  [[nodiscard]] const std::string& current_cell() const {
    return current_cell_;
  }

 private:
  [[nodiscard]] bool fire(FaultSpec& spec);
  [[nodiscard]] double next_unit();

  std::vector<FaultSpec> specs_;
  std::string current_cell_;
  std::uint32_t rng_state_ = 7u;
  std::uint64_t fires_ = 0;
};

/// Process-wide injector instance.
[[nodiscard]] Injector& injector();

/// RAII guard marking the (kernel, variant, tuning) cell currently
/// executing, so allocation hooks deep in data_utils know their kernel.
class ScopedCell {
 public:
  explicit ScopedCell(const std::string& kernel) {
    injector().begin_cell(kernel);
  }
  ~ScopedCell() { injector().end_cell(); }
  ScopedCell(const ScopedCell&) = delete;
  ScopedCell& operator=(const ScopedCell&) = delete;
};

}  // namespace rperf::faults
