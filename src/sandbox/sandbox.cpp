#include "sandbox/sandbox.hpp"

#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

namespace rperf::sandbox {

namespace {

volatile sig_atomic_t g_interrupt = 0;

void interrupt_handler(int sig) { g_interrupt = sig; }

/// Crash handler installed in the worker: dump signal + backtrace to
/// stderr (fd 2, already dup'ed onto the forensics pipe), then re-raise
/// with default disposition so the parent sees the true dying signal.
void worker_crash_handler(int sig) {
  // Only async-signal-safe calls below.
  char head[64];
  int n = snprintf(head, sizeof(head), "\n*** worker fatal signal %d ***\n",
                   sig);
  if (n > 0) {
    ssize_t ignored = write(2, head, static_cast<std::size_t>(n));
    (void)ignored;
  }
  void* frames[48];
  const int depth = backtrace(frames, 48);
  backtrace_symbols_fd(frames, depth, 2);
  raise(sig);  // SA_RESETHAND restored the default action
}

}  // namespace

void install_worker_crash_handlers() {
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = worker_crash_handler;
  sa.sa_flags = SA_RESETHAND | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
}

void apply_worker_limits(std::size_t address_space_bytes) {
  rlimit rl;
  rl.rlim_cur = 0;  // no core files: the pipe forensics are the record
  rl.rlim_max = 0;
  setrlimit(RLIMIT_CORE, &rl);
  if (address_space_bytes > 0) {
    rl.rlim_cur = address_space_bytes;
    rl.rlim_max = address_space_bytes;
    setrlimit(RLIMIT_AS, &rl);
  }
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGHUP: return "SIGHUP";
    case SIGQUIT: return "SIGQUIT";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTRAP: return "SIGTRAP";
    default: return "SIG" + std::to_string(sig);
  }
}

void install_interrupt_handlers() {
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = interrupt_handler;
  sa.sa_flags = 0;  // no SA_RESTART: let blocking calls wake up
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int interrupt_signal() { return static_cast<int>(g_interrupt); }

void request_interrupt(int sig) { g_interrupt = sig; }

void clear_interrupt() { g_interrupt = 0; }

}  // namespace rperf::sandbox
