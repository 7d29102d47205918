#include "sandbox/pool.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sandbox/protocol.hpp"

namespace rperf::sandbox {

namespace {

// Frame payloads are "<header line>\n<body>"; the header is space-separated
// words ("job 17", "hello 4 12345", "result 17"). Deliberately not JSON: the
// pool sits below the instrumentation layer and the client's payloads are
// opaque bodies anyway.
struct Record {
  std::string type;
  std::uint64_t a = 0;  // id / proto, depending on type
  std::uint64_t b = 0;  // pid for hello
  std::string body;
};

std::string record_encode(const std::string& header, const std::string& body) {
  std::string s = header;
  s += '\n';
  s += body;
  return s;
}

bool record_decode(const std::string& payload, Record& rec) {
  const std::size_t nl = payload.find('\n');
  const std::string header =
      nl == std::string::npos ? payload : payload.substr(0, nl);
  rec.body = nl == std::string::npos ? std::string() : payload.substr(nl + 1);
  char type[16] = {0};
  unsigned long long a = 0;
  unsigned long long b = 0;
  const int n = std::sscanf(header.c_str(), "%15s %llu %llu", type, &a, &b);
  if (n < 1) return false;
  rec.type = type;
  rec.a = a;
  rec.b = b;
  return true;
}

constexpr std::size_t kStderrTailMax = 4096;
/// How long the supervisor waits for hello after fork, for bye after a
/// drain, and for exit after SIGTERM before it sends SIGKILL.
constexpr double kGraceSec = 2.0;
/// Per-slot respawn budget, and its backoff: doubles per respawn, capped.
constexpr int kMaxRespawns = 8;
constexpr int kRespawnBackoffMs = 25;
constexpr int kRespawnBackoffCapMs = 2000;
constexpr double kNever = std::numeric_limits<double>::infinity();
/// Consecutive fork() failures with zero live workers before giving up.
constexpr int kForkFailuresBeforeDegrade = 3;

void append_tail(std::string& tail, const char* buf, std::size_t n) {
  tail.append(buf, n);
  if (tail.size() > kStderrTailMax) {
    tail.erase(0, tail.size() - kStderrTailMax);
  }
}

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Worker-side only: set by corrupt_next_frame() inside a forked worker.
bool g_corrupt_next = false;

bool write_frame(int fd, const std::string& payload, bool corrupt = false) {
  const std::string frame = frame_encode(payload, corrupt);
  return write_all(fd, frame.data(), frame.size());
}

// ----- SIGCHLD self-pipe -----
// The handler only writes one byte; the supervisor's poll() wakes and does
// the actual (non-signal-context) waitpid sweep. This is the single wait
// loop for pooled workers — no other code path reaps them, so none linger
// as zombies and none are stolen from other wait()ers.
int g_sigchld_pipe[2] = {-1, -1};

void sigchld_handler(int) {
  const int saved_errno = errno;
  if (g_sigchld_pipe[1] >= 0) {
    const char c = 'c';
    ssize_t ignored = write(g_sigchld_pipe[1], &c, 1);
    (void)ignored;
  }
  errno = saved_errno;
}

// ----- fork-failure test hook -----
std::atomic<int> g_fail_forks{0};

pid_t checked_fork() {
  int expected = g_fail_forks.load();
  while (expected != 0) {
    const int next = expected > 0 ? expected - 1 : expected;
    if (g_fail_forks.compare_exchange_weak(expected, next)) {
      errno = EAGAIN;
      return -1;
    }
  }
  return fork();
}

enum class FrameRead { Ok, Eof, Bad };

/// Blocking frame read for the worker's control pipe.
FrameRead read_frame_blocking(int fd, FrameReader& reader,
                              std::string& payload) {
  for (;;) {
    switch (reader.next(payload)) {
      case FrameReader::Status::Frame:
        return FrameRead::Ok;
      case FrameReader::Status::Corrupt:
        return FrameRead::Bad;
      case FrameReader::Status::NeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return FrameRead::Eof;
  }
}

/// The worker process: hello, then the job loop. Never returns.
[[noreturn]] void worker_entry(const PoolConfig& cfg, const PoolClient& client,
                               int ctl_rd, int res_wr, int err_wr) {
  dup2(err_wr, 2);
  if (err_wr != 2) close(err_wr);
  signal(SIGINT, SIG_DFL);
  signal(SIGTERM, SIG_DFL);
  signal(SIGCHLD, SIG_DFL);
  // The parent may die or close our result pipe mid-write; we want EPIPE
  // and an orderly exit, not sudden death.
  signal(SIGPIPE, SIG_IGN);
  apply_worker_limits(cfg.address_space_bytes);
  install_worker_crash_handlers();
  g_corrupt_next = false;

  if (client.on_worker_start) client.on_worker_start();

  char hello[64];
  std::snprintf(hello, sizeof(hello), "hello %d %d", kProtocolVersion,
                static_cast<int>(getpid()));
  if (!write_frame(res_wr, hello)) _exit(1);

  FrameReader reader;
  std::string payload;
  int exit_code = 0;
  try {
    for (;;) {
      const FrameRead st = read_frame_blocking(ctl_rd, reader, payload);
      if (st == FrameRead::Bad) {
        std::fprintf(stderr, "worker: corrupt control frame from parent\n");
        exit_code = 1;
        break;
      }
      if (st == FrameRead::Eof) break;  // parent closed: implicit drain
      Record rec;
      if (!record_decode(payload, rec)) {
        std::fprintf(stderr, "worker: unparseable control record\n");
        exit_code = 1;
        break;
      }
      if (rec.type == "job") {
        const std::string result = client.run_job(rec.body);
        char header[32];
        std::snprintf(header, sizeof(header), "result %llu",
                      static_cast<unsigned long long>(rec.a));
        const bool corrupt = std::exchange(g_corrupt_next, false);
        if (!write_frame(res_wr, record_encode(header, result), corrupt)) {
          exit_code = 1;
          break;
        }
      } else if (rec.type == "drain") {
        std::string fin;
        if (client.final_payload) fin = client.final_payload();
        if (!fin.empty()) write_frame(res_wr, record_encode("final", fin));
        write_frame(res_wr, "bye");
        break;
      }
    }
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "worker: std::bad_alloc escaped the job runner\n");
    fflush(nullptr);
    _exit(kOomExitCode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: unhandled exception: %s\n", e.what());
    fflush(nullptr);
    _exit(1);
  } catch (...) {
    std::fprintf(stderr, "worker: unhandled non-standard exception\n");
    fflush(nullptr);
    _exit(1);
  }
  fflush(nullptr);
  _exit(exit_code);
}

}  // namespace

std::string to_string(WorkerState s) {
  switch (s) {
    case WorkerState::Spawning: return "spawning";
    case WorkerState::Idle: return "idle";
    case WorkerState::Busy: return "busy";
    case WorkerState::Draining: return "draining";
    case WorkerState::Dead: return "dead";
  }
  return "?";
}

std::string to_string(FailReason r) {
  switch (r) {
    case FailReason::WorkerDied: return "worker-died";
    case FailReason::DeadlineKilled: return "deadline";
    case FailReason::ProtocolCorrupt: return "protocol-corrupt";
  }
  return "?";
}

std::string JobFailure::describe() const {
  switch (reason) {
    case FailReason::WorkerDied:
      if (exited && exit_code == kOomExitCode) {
        return "worker out of memory (exit code " +
               std::to_string(exit_code) + ")";
      }
      if (exited) {
        return "worker exited with code " + std::to_string(exit_code);
      }
      return "worker killed by " + signal_name(signal);
    case FailReason::DeadlineKilled:
      return "worker killed past the per-job wall deadline";
    case FailReason::ProtocolCorrupt:
      return "corrupt frame on the worker's result stream";
  }
  return "?";
}

void WorkerPool::corrupt_next_frame() { g_corrupt_next = true; }

namespace pool_testing {
void fail_next_forks(int n) { g_fail_forks.store(n); }
}  // namespace pool_testing

WorkerPool::WorkerPool(PoolConfig cfg, PoolClient client)
    : cfg_(std::move(cfg)), client_(std::move(client)) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.queue_capacity == 0) {
    cfg_.queue_capacity = static_cast<std::size_t>(cfg_.workers) * 2;
  }
  if (cfg_.core_budget < 1) {
    cfg_.core_budget =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  stats_.core_budget = cfg_.core_budget;
}

WorkerPool::~WorkerPool() = default;

PoolOutcome WorkerPool::run(
    const std::function<std::optional<Job>()>& next_job) {
  struct Slot {
    pid_t pid = -1;
    int ctl_wr = -1;   // parent -> worker control frames
    int res_rd = -1;   // worker -> parent hello/result/bye frames
    int err_rd = -1;   // worker stderr (forensics tail)
    WorkerState state = WorkerState::Dead;
    FrameReader reader;
    std::string stderr_tail;
    std::optional<Job> job;
    // When the supervisor's current wait on this worker ends: hello while
    // Spawning, the result while Busy, bye or exit while Draining. Idle
    // workers are not waited on.
    double due = kNever;
    bool ignore_frames = false;  // stream condemned (kill pending)
    bool expect_clean_exit = false;
    bool sent_kill = false;
    int respawns = 0;
    double next_spawn_at = 0.0;
    bool ran_job = false;                // this incarnation took a job
    std::uint64_t last_affinity = 0;     // survives recycling (warm dataset
                                         // keys die with the worker, but a
                                         // respawn refills fastest with the
                                         // same key's remaining jobs)
  };

  stats_ = PoolStats{};
  stats_.core_budget = cfg_.core_budget;
  std::vector<Slot> slots(static_cast<std::size_t>(cfg_.workers));
  std::deque<Job> queue;
  bool source_done = false;
  bool aborting = false;
  bool interrupted = false;
  int consecutive_fork_failures = 0;

  // Scoped signal plumbing: SIGCHLD self-pipe wakeup, SIGPIPE ignored (a
  // worker dying between poll() and our write must surface as EPIPE, not
  // kill the driver). Both restored on every exit path below.
  if (pipe(g_sigchld_pipe) != 0) {
    g_sigchld_pipe[0] = g_sigchld_pipe[1] = -1;
  } else {
    set_nonblocking(g_sigchld_pipe[0]);
    set_nonblocking(g_sigchld_pipe[1]);
  }
  struct sigaction old_chld;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = sigchld_handler;
  sa.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGCHLD, &sa, &old_chld);
  struct sigaction old_pipe;
  struct sigaction ign;
  memset(&ign, 0, sizeof(ign));
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPIPE, &ign, &old_pipe);

  auto cleanup_signals = [&] {
    sigaction(SIGCHLD, &old_chld, nullptr);
    sigaction(SIGPIPE, &old_pipe, nullptr);
    for (int& fd : g_sigchld_pipe) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
  };

  auto close_slot_fds = [](Slot& s) {
    for (int* fd : {&s.ctl_wr, &s.res_rd, &s.err_rd}) {
      if (*fd >= 0) close(*fd);
      *fd = -1;
    }
  };

  auto live = [&slots] {
    std::size_t n = 0;
    for (const Slot& s : slots) {
      if (s.state != WorkerState::Dead) ++n;
    }
    return n;
  };

  auto spawn = [&](Slot& s) -> bool {
    int ctl[2];
    int res[2];
    int err[2];
    if (pipe(ctl) != 0) return false;
    if (pipe(res) != 0) {
      close(ctl[0]);
      close(ctl[1]);
      return false;
    }
    if (pipe(err) != 0) {
      close(ctl[0]);
      close(ctl[1]);
      close(res[0]);
      close(res[1]);
      return false;
    }
    fflush(nullptr);
    const pid_t pid = checked_fork();
    if (pid < 0) {
      for (int fd : {ctl[0], ctl[1], res[0], res[1], err[0], err[1]}) {
        close(fd);
      }
      ++stats_.spawn_failures;
      return false;
    }
    if (pid == 0) {
      // ----- worker -----
      close(ctl[1]);
      close(res[0]);
      close(err[0]);
      if (g_sigchld_pipe[0] >= 0) close(g_sigchld_pipe[0]);
      if (g_sigchld_pipe[1] >= 0) close(g_sigchld_pipe[1]);
      worker_entry(cfg_, client_, ctl[0], res[1], err[1]);
    }
    // ----- supervisor -----
    close(ctl[0]);
    close(res[1]);
    close(err[1]);
    set_nonblocking(res[0]);
    set_nonblocking(err[0]);
    const std::uint64_t kept_affinity = s.last_affinity;
    s = Slot{};  // fresh incarnation, but keep the slot's respawn history
    s.pid = pid;
    s.ctl_wr = ctl[1];
    s.res_rd = res[0];
    s.err_rd = err[0];
    s.last_affinity = kept_affinity;
    s.state = WorkerState::Spawning;
    s.due = now_sec() + kGraceSec;
    ++stats_.spawns;
    consecutive_fork_failures = 0;
    return true;
  };

  auto schedule_respawn = [&](Slot& s) {
    ++s.respawns;
    const int shift = s.respawns > 6 ? 6 : s.respawns - 1;
    const int backoff = kRespawnBackoffMs << shift;
    s.next_spawn_at =
        now_sec() +
        (backoff > kRespawnBackoffCapMs ? kRespawnBackoffCapMs : backoff) /
            1000.0;
  };

  auto handle_disposition = [&](Disposition d, Job&& job, bool retry_front) {
    if (d == Disposition::Retry) {
      if (retry_front) {
        queue.push_front(std::move(job));
      } else {
        queue.push_back(std::move(job));
      }
    } else if (d == Disposition::Abort) {
      aborting = true;
      queue.clear();
    }
  };

  auto fail_job = [&](Slot& s, JobFailure f) {
    if (!s.job) return;
    f.stderr_tail = s.stderr_tail;
    Job job = std::move(*s.job);
    s.job.reset();
    ++stats_.jobs_failed;
    Disposition d = Disposition::Done;
    if (client_.on_failure) d = client_.on_failure(job, f);
    handle_disposition(d, std::move(job), /*retry_front=*/true);
  };

  /// Condemn a live worker: SIGKILL now, surface the in-flight job (if
  /// any) with `reason`, ignore whatever else its stream says.
  auto condemn = [&](Slot& s, FailReason reason) {
    if (s.pid > 0) kill(s.pid, SIGKILL);
    s.ignore_frames = true;
    s.state = WorkerState::Draining;
    s.sent_kill = true;
    JobFailure jf;
    jf.reason = reason;
    fail_job(s, jf);
  };

  auto send_drain = [&](Slot& s) {
    s.state = WorkerState::Draining;
    s.due = now_sec() + kGraceSec;
    s.expect_clean_exit = true;
    const std::string frame = frame_encode("drain");
    if (!write_all(s.ctl_wr, frame.data(), frame.size())) {
      // Worker already died; the reap path will sort it out.
    }
  };

  auto handle_frame = [&](Slot& s, const std::string& payload) {
    if (s.ignore_frames) return;
    Record rec;
    if (!record_decode(payload, rec)) {
      ++stats_.corrupt_frames;
      condemn(s, FailReason::ProtocolCorrupt);
      return;
    }
    if (rec.type == "hello") {
      if (static_cast<int>(rec.a) != kProtocolVersion ||
          s.state != WorkerState::Spawning) {
        ++stats_.corrupt_frames;
        condemn(s, FailReason::ProtocolCorrupt);
        return;
      }
      s.state = WorkerState::Idle;
      s.due = kNever;
      // A disposable pool recycles by design, and the client's retries
      // and quarantine already bound deaths per job, so only a worker
      // that dies before hello counts against its respawn budget.
      if (cfg_.disposable) s.respawns = 0;
    } else if (rec.type == "result") {
      if (s.state != WorkerState::Busy || !s.job || s.job->id != rec.a) {
        ++stats_.corrupt_frames;
        condemn(s, FailReason::ProtocolCorrupt);
        return;
      }
      stats_.ring_payload_bytes += rec.body.size();
      Job job = std::move(*s.job);
      s.job.reset();
      s.state = WorkerState::Idle;
      s.due = kNever;
      ++stats_.jobs_completed;
      Disposition d = Disposition::Done;
      if (client_.on_result) d = client_.on_result(job, rec.body);
      handle_disposition(d, std::move(job), /*retry_front=*/true);
    } else if (rec.type == "final") {
      stats_.ring_payload_bytes += rec.body.size();
      if (client_.on_final) client_.on_final(rec.body);
    } else if (rec.type == "bye") {
      // Clean shutdown acknowledged; reap finishes the slot.
    } else {
      ++stats_.corrupt_frames;
      condemn(s, FailReason::ProtocolCorrupt);
    }
  };

  /// Drain every readable byte from a slot's pipes; dispatch frames.
  auto read_slot = [&](Slot& s) {
    char buf[4096];
    if (s.res_rd >= 0) {
      for (;;) {
        const ssize_t n = read(s.res_rd, buf, sizeof(buf));
        if (n > 0) {
          s.reader.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR)) {
          break;
        }
        break;  // EOF or hard error: reap will follow via SIGCHLD
      }
      std::string payload;
      for (;;) {
        const FrameReader::Status st = s.reader.next(payload);
        if (st == FrameReader::Status::Frame) {
          handle_frame(s, payload);
          if (s.ignore_frames) break;
          continue;
        }
        if (st == FrameReader::Status::Corrupt && !s.ignore_frames) {
          ++stats_.corrupt_frames;
          condemn(s, FailReason::ProtocolCorrupt);
        }
        break;
      }
    }
    if (s.err_rd >= 0) {
      for (;;) {
        const ssize_t n = read(s.err_rd, buf, sizeof(buf));
        if (n > 0) {
          append_tail(s.stderr_tail, buf, static_cast<std::size_t>(n));
          continue;
        }
        break;
      }
    }
  };

  /// The single wait loop (satellite: zombie-free operation). Reaps every
  /// dead pooled worker, folds rusage into stats, surfaces in-flight jobs.
  auto reap = [&] {
    for (;;) {
      int status = 0;
      rusage ru;
      memset(&ru, 0, sizeof(ru));
      const pid_t pid = wait4(-1, &status, WNOHANG, &ru);
      if (pid <= 0) break;
      Slot* slot = nullptr;
      for (Slot& s : slots) {
        if (s.pid == pid) {
          slot = &s;
          break;
        }
      }
      if (slot == nullptr) continue;  // not ours (defensive)
      Slot& s = *slot;
      read_slot(s);  // final frames may have raced the exit
      WorkerUsage usage;
      usage.max_rss_kb = ru.ru_maxrss;
      usage.user_sec = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
      usage.sys_sec = static_cast<double>(ru.ru_stime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
      if (usage.max_rss_kb > stats_.peak_rss_kb) {
        stats_.peak_rss_kb = usage.max_rss_kb;
      }
      stats_.child_user_sec += usage.user_sec;
      stats_.child_sys_sec += usage.sys_sec;

      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (s.job) {
        // Child-initiated death mid-job: crash, OOM exit, SIGXCPU, ...
        JobFailure f;
        f.reason = FailReason::WorkerDied;
        f.exited = WIFEXITED(status);
        f.exit_code = f.exited ? WEXITSTATUS(status) : 0;
        f.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        f.usage = usage;
        fail_job(s, f);
      }
      const bool abnormal = !(clean && s.expect_clean_exit);
      if (abnormal && !interrupted) {
        ++stats_.recycles;
        schedule_respawn(s);
      }
      close_slot_fds(s);
      s.pid = -1;
      s.state = WorkerState::Dead;
      s.ignore_frames = false;
      s.expect_clean_exit = false;
    }
  };

  auto work_remaining = [&] {
    if (!queue.empty()) return true;
    if (!source_done && !aborting) return true;
    for (const Slot& s : slots) {
      if (s.job) return true;
    }
    return false;
  };

  PoolOutcome outcome = PoolOutcome::Completed;

  for (;;) {
    // Interrupt: stop everything; in-flight jobs go unresolved (the
    // caller marks them skipped), workers get SIGTERM then, past the
    // grace, SIGKILL from the deadline sweep below.
    if (!interrupted && interrupt_signal() != 0) {
      interrupted = true;
      aborting = true;
      queue.clear();
      const double now = now_sec();
      for (Slot& s : slots) {
        if (s.pid > 0) kill(s.pid, SIGTERM);
        s.ignore_frames = true;
        s.job.reset();
        if (s.state != WorkerState::Dead) {
          s.state = WorkerState::Draining;
          s.due = now + kGraceSec;
        }
      }
    }

    // Backpressure: pull new jobs only while the bounded queue has room.
    while (!source_done && !aborting &&
           queue.size() < cfg_.queue_capacity) {
      std::optional<Job> j = next_job();
      if (!j) {
        source_done = true;
        break;
      }
      queue.push_back(std::move(*j));
      if (queue.size() > stats_.peak_queue_depth) {
        stats_.peak_queue_depth = queue.size();
      }
    }

    if (!work_remaining()) {
      // Drain whoever is still up, then wait for the reaps.
      bool any_live = false;
      for (Slot& s : slots) {
        if (s.state == WorkerState::Idle) send_drain(s);
        if (s.state != WorkerState::Dead) any_live = true;
      }
      if (!any_live) break;
    }

    // Respawn dead slots while there is queued work they could take.
    if (!aborting) {
      std::size_t ready = 0;  // workers that are or will become available
      for (const Slot& s : slots) {
        if (s.state == WorkerState::Idle || s.state == WorkerState::Spawning) {
          ++ready;
        }
      }
      const double now = now_sec();
      for (Slot& s : slots) {
        if (s.state != WorkerState::Dead) continue;
        if (ready >= queue.size()) break;
        if (s.respawns > kMaxRespawns) continue;
        if (now < s.next_spawn_at) continue;
        const int saved_respawns = s.respawns;
        if (spawn(s)) {
          s.respawns = saved_respawns;
          ++ready;
        } else {
          s.respawns = saved_respawns;
          ++consecutive_fork_failures;
          if (live() == 0 &&
              consecutive_fork_failures >= kForkFailuresBeforeDegrade) {
            outcome = PoolOutcome::SpawnFailed;
          } else {
            schedule_respawn(s);
          }
        }
      }
      // No worker alive, none can ever come back, work still queued:
      // the pool cannot make progress. Degrade.
      if (live() == 0 && work_remaining()) {
        bool any_respawnable = false;
        for (const Slot& s : slots) {
          if (s.respawns <= kMaxRespawns) {
            any_respawnable = true;
            break;
          }
        }
        if (!any_respawnable) outcome = PoolOutcome::SpawnFailed;
      }
      if (outcome == PoolOutcome::SpawnFailed) break;
    }

    // Dispatch queued jobs to idle workers, affinity first. Pass 1 gives
    // each idle worker the first queued job matching the key it last ran
    // (warm datasets, warm arenas). Pass 2 hands the remaining idle
    // workers jobs whose keys no live worker has claimed — a claimed
    // key's jobs wait for their warm worker rather than being spread
    // across the pool, so per-key setup happens once per pool, not once
    // per worker. Progress is guaranteed: a claimed key's owner is
    // Idle (pass 1 feeds it this round), Busy/Spawning (it will pull the
    // key's jobs when it frees up), or dies (respawn keeps the claim; a
    // slot past its respawn budget goes Dead and Dead slots claim
    // nothing). The core budget only delays a job: every job fits once
    // nothing is in flight.
    auto dispatch_to = [&](Slot& s, std::deque<Job>::iterator it) -> bool {
      Job job = std::move(*it);
      queue.erase(it);
      if (client_.before_dispatch) client_.before_dispatch(job);
      char header[32];
      std::snprintf(header, sizeof(header), "job %llu",
                    static_cast<unsigned long long>(job.id));
      const std::string frame =
          frame_encode(record_encode(header, job.payload));
      if (!write_all(s.ctl_wr, frame.data(), frame.size())) {
        // Worker died between poll rounds; give the job back and let the
        // reap path recycle the slot.
        queue.push_front(std::move(job));
        s.state = WorkerState::Draining;
        s.due = now_sec() + kGraceSec;
        return false;
      }
      s.last_affinity = job.affinity;
      s.ran_job = true;
      s.job = std::move(job);
      s.state = WorkerState::Busy;
      s.due = cfg_.job_deadline_sec > 0.0 ? now_sec() + cfg_.job_deadline_sec
                                          : kNever;
      ++stats_.jobs_dispatched;
      return true;
    };
    if (!aborting) {
      // Oversubscription guard: admit a job only while its cores fit the
      // budget beside the jobs in flight. A wide job waits until enough
      // narrow ones finish (or nothing runs, for one as wide as the
      // machine); idle workers it leaves unused keep their warm affinity
      // partitions and stand by as crash-containment spares.
      const int budget = cfg_.core_budget;
      auto cores_of = [budget](const Job& j) {
        return std::clamp(j.cores, 1, budget);
      };
      int cores_inflight = 0;
      for (const Slot& s : slots) {
        if (s.state == WorkerState::Busy && s.job) {
          cores_inflight += cores_of(*s.job);
        }
      }
      auto admit = [&](Slot& s, std::deque<Job>::iterator it) -> bool {
        const int cores = cores_of(*it);
        if (cores_inflight + cores > budget) return false;
        if (!dispatch_to(s, it)) return false;
        cores_inflight += cores;
        stats_.peak_cores_inflight =
            std::max(stats_.peak_cores_inflight, cores_inflight);
        return true;
      };
      for (Slot& s : slots) {
        if (queue.empty() || cores_inflight >= budget) break;
        if (s.state != WorkerState::Idle || s.last_affinity == 0) continue;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (it->affinity == s.last_affinity) {
            if (admit(s, it)) ++stats_.affinity_hits;
            break;
          }
        }
      }
      auto claimed_elsewhere = [&](std::uint64_t key, const Slot& self) {
        if (key == 0) return false;
        for (const Slot& o : slots) {
          if (&o == &self || o.last_affinity != key) continue;
          if (o.state == WorkerState::Idle || o.state == WorkerState::Busy ||
              o.state == WorkerState::Spawning) {
            return true;
          }
        }
        return false;
      };
      for (Slot& s : slots) {
        if (queue.empty() || cores_inflight >= budget) break;
        if (s.state != WorkerState::Idle) continue;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (claimed_elsewhere(it->affinity, s)) continue;
          // A disposable worker never runs a second key: recycle it, and
          // its fresh successor takes the job.
          if (cfg_.disposable && s.ran_job && it->affinity != s.last_affinity) {
            send_drain(s);
          } else {
            admit(s, it);
          }
          break;
        }
      }
    }

    // If the source dried up, idle workers have nothing left to do.
    if ((source_done || aborting) && queue.empty()) {
      for (Slot& s : slots) {
        if (s.state == WorkerState::Idle) send_drain(s);
      }
    }

    // poll() on every live stream plus the SIGCHLD self-pipe.
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_owner;
    if (g_sigchld_pipe[0] >= 0) {
      fds.push_back({g_sigchld_pipe[0], POLLIN, 0});
      fd_owner.push_back(nullptr);
    }
    for (Slot& s : slots) {
      if (s.res_rd >= 0) {
        fds.push_back({s.res_rd, POLLIN, 0});
        fd_owner.push_back(&s);
      }
      if (s.err_rd >= 0) {
        fds.push_back({s.err_rd, POLLIN, 0});
        fd_owner.push_back(&s);
      }
    }
    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (rc > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Slot* s = fd_owner[i];
        if (s == nullptr) {
          char buf[64];
          while (read(g_sigchld_pipe[0], buf, sizeof(buf)) > 0) {
          }
        } else {
          read_slot(*s);
        }
      }
    }
    reap();

    // Deadlines, the only liveness check. A Busy worker past its job's
    // deadline gets SIGTERM and the grace to exit; its job is already
    // decided. A worker that missed hello, bye or exit gets SIGKILL.
    const double now = now_sec();
    for (Slot& s : slots) {
      if (s.pid <= 0 || s.sent_kill || now < s.due) continue;
      if (s.state == WorkerState::Busy) {
        ++stats_.deadline_kills;
        kill(s.pid, SIGTERM);
        s.ignore_frames = true;
        s.state = WorkerState::Draining;
        s.due = now + kGraceSec;
        JobFailure jf;
        jf.reason = FailReason::DeadlineKilled;
        fail_job(s, jf);
      } else {
        kill(s.pid, SIGKILL);
        s.sent_kill = true;
      }
    }
  }

  // Tear down whatever is left (SpawnFailed / Interrupted exits), then
  // sweep so no pooled worker can outlive run() as a zombie.
  for (Slot& s : slots) {
    if (s.pid > 0) kill(s.pid, SIGKILL);
  }
  for (Slot& s : slots) {
    if (s.pid > 0) {
      int status = 0;
      while (waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
      }
      close_slot_fds(s);
      s.pid = -1;
      s.state = WorkerState::Dead;
    } else {
      close_slot_fds(s);
    }
  }
  while (waitpid(-1, nullptr, WNOHANG) > 0) {
  }
  cleanup_signals();
  if (interrupted) return PoolOutcome::Interrupted;
  return outcome;
}

}  // namespace rperf::sandbox
