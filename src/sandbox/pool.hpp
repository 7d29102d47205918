// rperf::sandbox::WorkerPool — the one out-of-process execution path.
//
// Every sandboxed cell runs in a forked worker owned by a pool, and one
// supervisor — the caller's thread, running a single-threaded poll()
// event loop — makes every lifecycle decision:
//
//   * each worker slot is a state machine,
//       Dead -> Spawning -> Idle -> Busy -> (Idle ...) -> Draining -> Dead,
//     with Terminating (SIGTERM sent) and Killed (SIGKILL sent) for a
//     worker the supervisor gives up on. The state alone decides which
//     frames of the CRC-framed pipe protocol (protocol.hpp) the slot
//     accepts — hello while Spawning, its job's result while Busy, final
//     and bye while Draining — what its deadline means, and whether its
//     exit counts as a recycle; any other frame kills the worker;
//   * liveness is a wall deadline on every wait the supervisor makes:
//     hello is due within a 2 s grace after fork, a job's result within
//     job_deadline_sec of dispatch (then SIGTERM, and SIGKILL after the
//     grace), and bye or exit within the grace after a drain. A worker
//     that is alive but stuck — wedged, stopped, spinning — misses its
//     deadline like a dead one;
//   * a worker that dies — crash, OOM, deadline, corrupt frame — is
//     reaped by a SIGCHLD-aware waitpid loop (no zombies) and respawned
//     with exponential backoff, up to a per-slot budget; the in-flight
//     job is handed back to the client, which decides Retry (requeued at
//     the front, dispatched to a fresh worker) or Done;
//   * the job queue is pull-based: the pool asks the client's `next_job`
//     source for work only while the pending queue holds fewer than
//     kQueueSlotsPerWorker jobs per worker, so producer memory is bounded
//     by construction (backpressure);
//   * if no worker can ever be spawned (fork failure, respawn budget
//     exhausted with work remaining) run() returns SpawnFailed and the
//     caller degrades — e.g. to in-process execution — instead of
//     aborting the sweep.
//
// Two recycling policies share this loop (PoolConfig::disposable). A
// persistent worker runs job after job, and jobs sharing an affinity key
// are steered to the worker that last ran that key, so warm state is
// built once per pool. A disposable worker is drained and respawned
// before it runs a job whose affinity key differs from its last job's,
// so each key — one cell, or one kernel's cells — gets a fresh process.
//
// Workers are created by fork WITHOUT exec, inheriting the parent's warm
// state (kernel registry, parsed parameters, armed fault injector) by
// memory copy, so no argv marshalling layer exists to drift out of sync.
// The one obligation: the parent must not have run OpenMP parallel
// regions before the pool starts (a forked copy of a live libgomp thread
// pool deadlocks). The supervisor itself stays single-threaded, so
// respawn forks are safe at any point.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sandbox/sandbox.hpp"

namespace rperf::sandbox {

/// Why an in-flight job came back without a result.
enum class FailReason {
  WorkerDied,        ///< worker exited/crashed on its own mid-job
  DeadlineKilled,    ///< supervisor killed it past the per-job deadline
  ProtocolCorrupt,   ///< torn/corrupt frame on the result stream
};
[[nodiscard]] std::string to_string(FailReason r);

struct JobFailure {
  FailReason reason = FailReason::WorkerDied;
  bool exited = false;        ///< worker exited (vs. killed by a signal)
  int exit_code = 0;          ///< valid when exited
  int signal = 0;             ///< terminating signal when not exited
  WorkerUsage usage;          ///< rusage of the dead worker (when reaped)
  std::string stderr_tail;    ///< forensics tail captured from the worker
  /// One-line human description ("worker killed by SIGSEGV", ...).
  [[nodiscard]] std::string describe() const;
};

/// One unit of work. `payload` is opaque to the pool; the client encodes
/// whatever the worker-side `run_job` needs (and may refresh it in
/// `before_dispatch`, e.g. to carry up-to-date injector state).
struct Job {
  std::uint64_t id = 0;
  std::string payload;
  /// Dispatch-affinity key (0 = none). Jobs sharing a nonzero key prefer
  /// the worker that last ran that key, and a key "claimed" by a live
  /// worker is not spread across others while that worker can take it —
  /// so per-key warm state is built once per pool instead of once per
  /// worker. For suite cells that state is the allocator arenas' free
  /// lists in the kernel's size classes; inputs are regenerated per cell.
  /// What affinity buys is bounded worker memory, not speed: under the
  /// suite's narrow-first order on a 4-core guest, zeroing the key ran a
  /// 204-cell `--workers 4` sweep ~11% faster but raised its peak RSS
  /// from 342 to 372 MiB: each worker's arenas then cache chunks in the
  /// size classes of more kernels.
  std::uint64_t affinity = 0;
  /// Cores the job occupies while it runs: 1 for a serial job, its thread
  /// team for a parallel one. Charged against PoolConfig::core_budget,
  /// clamped to [1, core_budget] — a job wider than the machine runs
  /// alone rather than never.
  int cores = 1;
};

/// Client verdict after a result or failure is delivered.
enum class Disposition {
  Done,   ///< job resolved; do not run it again
  Retry,  ///< requeue at the front, run on a (fresh) worker
  Abort,  ///< stop dispatching queued work; finish in-flight jobs, drain
};

/// Pending-queue slots per worker: the pool pulls next_job only while the
/// queue holds fewer than workers x this many jobs. Affinity dispatch scans
/// the queue for keys no live worker has claimed, so the window must reach
/// past the queued Seq cells of every kernel the other workers hold to the
/// next unclaimed kernel under the suite's narrow-first order.
inline constexpr std::size_t kQueueSlotsPerWorker = 8;

struct PoolConfig {
  int workers = 2;
  /// Per-job wall deadline in seconds; 0 = none (the job's result is
  /// awaited indefinitely).
  double job_deadline_sec = kDefaultJobDeadlineSec;
  std::size_t address_space_bytes = 0;  ///< RLIMIT_AS per worker; 0 = inherit
  /// Cores the pool may keep busy at once; 0 = the machine's hardware
  /// concurrency. A queued job is admitted only while the cores of the
  /// jobs in flight plus its own Job::cores fit the budget (or nothing is
  /// in flight), so a parallel job's thread team never shares cores with
  /// other measured work, and serial jobs fill the cores it leaves free.
  /// Idle workers beyond what the budget admits stay resident with their
  /// warm allocator arenas (see Job::affinity) and as crash-containment
  /// spares.
  int core_budget = 0;
  /// Recycling policy. A disposable worker is drained and respawned
  /// before it runs a job whose Job::affinity differs from its previous
  /// job's; such clean recycles are not counted as PoolStats::recycles,
  /// and a worker that reaches hello resets its slot's respawn budget
  /// (job deaths are bounded by the client's retries instead). A
  /// persistent worker runs jobs until it dies or the pool drains.
  bool disposable = false;
};

struct PoolStats {
  std::size_t spawns = 0;            ///< successful forks (incl. respawns)
  std::size_t spawn_failures = 0;    ///< fork() failures
  std::size_t recycles = 0;          ///< abnormal deaths that freed a slot
  std::size_t deadline_kills = 0;
  std::size_t corrupt_frames = 0;    ///< streams dropped on framing errors
  std::size_t jobs_dispatched = 0;   ///< job frames sent (incl. retries)
  std::size_t jobs_completed = 0;    ///< result frames accepted
  std::size_t jobs_failed = 0;       ///< failures handed to the client
  std::size_t peak_queue_depth = 0;  ///< high water of the pending queue
  std::size_t affinity_hits = 0;     ///< dispatches to the job's warm worker
  int core_budget = 0;               ///< resolved PoolConfig::core_budget
  int peak_cores_inflight = 0;       ///< high water of admitted Job::cores
  /// Share of the core budget that admitted jobs held over run():
  /// sum(admitted cores x seconds from dispatch to result or failure) /
  /// (core_budget x run() wall time), in [0, 1].
  double core_occupancy = 0.0;
  // bench/e2e reads the next two under these names until a change to the
  // benchmark renames them.
  std::size_t ring_fallbacks = 0;    ///< always 0: there is one transport
  std::uint64_t ring_payload_bytes = 0;  ///< result/final payload bytes
                                         ///< received over frames
  long peak_rss_kb = 0;              ///< max over reaped workers
  double child_user_sec = 0.0;       ///< summed over reaped workers
  double child_sys_sec = 0.0;
};

enum class PoolOutcome {
  Completed,    ///< source exhausted, every pulled job resolved or aborted
  Interrupted,  ///< sandbox::interrupt_signal() fired; workers killed
  SpawnFailed,  ///< could not keep any worker alive; degrade in-process
};

/// Client callbacks. The worker-side trio runs in the forked child; the
/// parent-side ones run on the supervisor thread inside run().
struct PoolClient {
  // ----- worker side (child process) -----
  /// Called once per worker right after fork (e.g. trace re-zeroing).
  std::function<void()> on_worker_start;
  /// Execute one job payload, return the result payload. Crashes, OOM and
  /// hangs here are what the pool exists to survive.
  std::function<std::string(const std::string& payload)> run_job;
  /// Called when the worker is drained; its return (e.g. a trace chunk)
  /// arrives at the parent as the "final" frame. Empty string to skip.
  std::function<std::string()> final_payload;

  // ----- parent side (supervisor thread) -----
  /// Refresh `job.payload` immediately before it is sent to a worker.
  /// This is the injector fold-back hook: retries must carry the *current*
  /// fault/budget state, not the state at enqueue time.
  std::function<void(Job& job)> before_dispatch;
  std::function<Disposition(const Job& job, const std::string& result)>
      on_result;
  std::function<Disposition(const Job& job, const JobFailure& failure)>
      on_failure;
  /// Receives each drained worker's final payload.
  std::function<void(const std::string& payload)> on_final;
};

class WorkerPool {
 public:
  WorkerPool(PoolConfig cfg, PoolClient client);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run the supervisor loop until `next_job` is exhausted and every
  /// pulled job has been resolved (result, terminal failure, or Abort).
  /// Jobs the client never saw a callback for were not executed.
  [[nodiscard]] PoolOutcome run(
      const std::function<std::optional<Job>()>& next_job);

  [[nodiscard]] const PoolStats& stats() const { return stats_; }

  // ----- worker-side controls (fault injection; no-ops in the parent) --
  /// Flip the CRC of the calling worker's next result frame. The
  /// supervisor must detect it and recycle the worker instead of
  /// mis-parsing.
  static void corrupt_next_frame();

 private:
  PoolConfig cfg_;
  PoolClient client_;
  PoolStats stats_;
};

namespace pool_testing {
/// Make the pool's next `n` fork() attempts fail (as if EAGAIN); pass a
/// negative n to make every attempt fail. Exercises the degradation path.
void fail_next_forks(int n);
}  // namespace pool_testing

}  // namespace rperf::sandbox
