// rperf::sandbox — process-level crash containment.
//
// In-process isolation catches exceptions, corrupt checksums, and
// cooperative timeouts, but cannot survive the failure modes that actually
// kill long sweeps: SIGSEGV, abort, stack overflow, OOM, and hangs no
// watchdog thread can preempt. Surviving those takes running each
// measurement in another process. The supervised worker pool
// (sandbox/pool.hpp) is that process boundary; this header holds what its
// workers and drivers share with it:
//
//   * the default wall deadline for a worker's job, and the hard rlimits
//     a worker runs under (RLIMIT_AS and RLIMIT_CORE=0);
//   * a crash handler installed in the worker that writes the dying
//     signal and a backtrace (backtrace_symbols_fd; symbol names resolve
//     when the executable links with -rdynamic) to stderr before
//     re-raising, so the supervisor's forensics record carries the
//     evidence;
//   * process-wide interrupt bookkeeping: install_interrupt_handlers
//     converts SIGINT/SIGTERM into a sticky flag the pool and executor
//     poll, so drivers can stop workers, flush checkpoints and exit
//     cleanly instead of losing a multi-hour sweep to Ctrl-C.
#pragma once

#include <string>

namespace rperf::sandbox {

/// Default wall deadline for one isolated cell (--max-cell-seconds), the
/// pool's only liveness check. The longest passing cell of a default full
/// in-process sweep (456 cells) is a Basic_MAT_MAT_SHARED Seq variant:
/// 1.29 s in a 16.7 s sweep, and 2.5-2.8 s in 32-36 s sweeps on the same
/// 4-core KVM guest when it was busier. 60 s leaves 21-46x headroom for
/// slower hosts, and a hung cell costs a sweep one minute, not forever.
inline constexpr double kDefaultJobDeadlineSec = 60.0;

/// wait4() rusage extract for one worker.
struct WorkerUsage {
  long max_rss_kb = 0;
  double user_sec = 0.0;
  double sys_sec = 0.0;
};

/// Name for a signal number ("SIGSEGV"); falls back to "SIG<n>".
[[nodiscard]] std::string signal_name(int sig);

// ----- worker-side setup (call in the forked child) -----
/// Apply RLIMIT_CORE=0, and RLIMIT_AS when `address_space_bytes` > 0.
void apply_worker_limits(std::size_t address_space_bytes);
/// Install the fatal-signal handlers that dump a backtrace to stderr and
/// re-raise. Call after stderr is rerouted to the forensics pipe.
void install_worker_crash_handlers();

// ----- graceful interruption (SIGINT/SIGTERM) -----
/// Install process-wide handlers that latch the signal. Idempotent.
void install_interrupt_handlers();
/// Signal latched by the handlers; 0 when none. Also settable by tests
/// via request_interrupt().
[[nodiscard]] int interrupt_signal();
/// Latch an interrupt as if the signal had been delivered (tests, embedders).
void request_interrupt(int sig);
/// Clear the latched interrupt (tests).
void clear_interrupt();

}  // namespace rperf::sandbox
