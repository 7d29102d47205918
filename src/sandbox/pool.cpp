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
#include <functional>
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
/// The supervisor's poll() timeout: the longest it takes to notice an
/// interrupt, a deadline or a backoff that has run out.
constexpr int kPollTickMs = 50;

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

// ----- the supervisor -----

/// A slot's lifecycle. The state alone decides which frames the slot
/// accepts, what its deadline (Slot::due) means, and whether the worker's
/// exit counts as a recycle:
///
///   state        accepts       past its due               exit is a recycle
///   Dead         -             -                          -
///   Spawning     hello         no hello: SIGKILL          yes
///   Idle         no frame      (no due)                   yes
///   Busy         its result    job overran: SIGTERM       yes
///   Draining     final, bye    no bye or exit: SIGKILL    unless exit 0
///   Terminating  (ignored)     no exit: SIGKILL           yes
///   Killed       (ignored)     (no due; awaits the reap)  yes
///
/// A frame its state does not accept is a protocol error, and the worker
/// is killed. Once the pool is interrupted no exit counts as a recycle.
enum class State { Dead, Spawning, Idle, Busy, Draining, Terminating, Killed };

struct Slot {
  pid_t pid = -1;
  int ctl_wr = -1;  // parent -> worker control frames
  int res_rd = -1;  // worker -> parent hello/result/final/bye frames
  int err_rd = -1;  // worker stderr (forensics tail)
  State state = State::Dead;
  double due = kNever;  // when the supervisor's current wait ends
  FrameReader reader;
  std::string stderr_tail;
  std::optional<Job> job;      // held exactly while Busy
  double dispatched_at = 0.0;  // when `job` was sent
  bool ran_job = false;        // this incarnation took a job
  double next_spawn_at = 0.0;  // while Dead: when the respawn backoff ends
  // The slot's history, which spawn() carries into the next incarnation.
  // Warm allocator arenas die with the worker, but a respawn refills
  // fastest with the same key's remaining jobs, so the affinity stays.
  int respawns = 0;
  std::uint64_t last_affinity = 0;
};

/// One run() of the pool: the slots, the pending queue, and one method per
/// transition. WorkerPool::run drives the steps from the caller's thread;
/// the destructor is the teardown.
class Supervisor {
 public:
  Supervisor(const PoolConfig& cfg, const PoolClient& client,
             PoolStats& stats);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void check_interrupt();
  void pull(const std::function<std::optional<Job>()>& next_job);
  [[nodiscard]] bool finished() const;
  [[nodiscard]] bool respawn();
  void dispatch();
  void drain_idle();
  void poll_frames();
  void reap();
  void expire_deadlines();
  [[nodiscard]] bool interrupted() const { return interrupted_; }

 private:
  bool spawn(Slot& s);
  void schedule_respawn(Slot& s);
  bool send_job(Slot& s, std::deque<Job>::iterator it);
  void drain(Slot& s);
  void read_slot(Slot& s);
  void on_frame(Slot& s, const std::string& payload);
  void hello(Slot& s);
  void complete(Slot& s, const std::string& result);
  void protocol_error(Slot& s);
  void signal_worker(Slot& s, int sig,
                     FailReason reason = FailReason::WorkerDied);
  void fail(Slot& s, JobFailure f);
  void settle(Disposition d, Job&& job);
  Job take_job(Slot& s);
  [[nodiscard]] int cores_of(const Job& j) const {
    return std::clamp(j.cores, 1, cfg_.core_budget);
  }
  [[nodiscard]] bool claimed_elsewhere(std::uint64_t key,
                                       const Slot& self) const;
  [[nodiscard]] std::size_t live() const;
  [[nodiscard]] bool work_remaining() const;

  const PoolConfig& cfg_;
  const PoolClient& client_;
  PoolStats& stats_;
  std::vector<Slot> slots_;
  std::deque<Job> queue_;
  bool source_done_ = false;
  bool aborting_ = false;
  bool interrupted_ = false;
  int consecutive_fork_failures_ = 0;
  const double started_at_ = now_sec();
  double core_seconds_ = 0.0;  // admitted cores x seconds in flight
  struct sigaction old_chld_;
  struct sigaction old_pipe_;
};

void close_fds(Slot& s) {
  for (int* fd : {&s.ctl_wr, &s.res_rd, &s.err_rd}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
}

Supervisor::Supervisor(const PoolConfig& cfg, const PoolClient& client,
                       PoolStats& stats)
    : cfg_(cfg),
      client_(client),
      stats_(stats),
      slots_(static_cast<std::size_t>(cfg.workers)) {
  // Scoped signal plumbing: SIGCHLD self-pipe wakeup, SIGPIPE ignored (a
  // worker dying between poll() and our write must surface as EPIPE, not
  // kill the driver). The destructor restores both.
  if (pipe(g_sigchld_pipe) != 0) {
    g_sigchld_pipe[0] = g_sigchld_pipe[1] = -1;
  } else {
    set_nonblocking(g_sigchld_pipe[0]);
    set_nonblocking(g_sigchld_pipe[1]);
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = sigchld_handler;
  sa.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGCHLD, &sa, &old_chld_);
  sa.sa_handler = SIG_IGN;
  sa.sa_flags = 0;
  sigaction(SIGPIPE, &sa, &old_pipe_);
}

// Teardown runs on every exit from run(), a client callback that throws
// included: SIGKILL and reap whatever is left, so no pooled worker outlives
// run() as a zombie, close every fd, and restore SIGCHLD and SIGPIPE.
Supervisor::~Supervisor() {
  for (Slot& s : slots_) {
    if (s.pid > 0) kill(s.pid, SIGKILL);
  }
  for (Slot& s : slots_) {
    if (s.pid > 0) {
      while (waitpid(s.pid, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    close_fds(s);
  }
  while (waitpid(-1, nullptr, WNOHANG) > 0) {
  }
  sigaction(SIGCHLD, &old_chld_, nullptr);
  sigaction(SIGPIPE, &old_pipe_, nullptr);
  for (int& fd : g_sigchld_pipe) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  const double wall = now_sec() - started_at_;
  if (wall > 0.0) {
    stats_.core_occupancy = core_seconds_ / (cfg_.core_budget * wall);
  }
}

/// Interrupt: stop everything. Nothing more is pulled or dispatched,
/// in-flight jobs go unresolved (the caller marks them skipped), and every
/// live worker gets SIGTERM, then SIGKILL from the deadlines past the grace.
void Supervisor::check_interrupt() {
  if (interrupted_ || interrupt_signal() == 0) return;
  interrupted_ = aborting_ = true;
  queue_.clear();
  for (Slot& s : slots_) {
    if (s.state != State::Dead && s.state != State::Killed) {
      signal_worker(s, SIGTERM);
    }
  }
}

/// Backpressure: pull new jobs only while the bounded queue has room.
void Supervisor::pull(const std::function<std::optional<Job>()>& next_job) {
  const std::size_t capacity = slots_.size() * kQueueSlotsPerWorker;
  while (!source_done_ && !aborting_ && queue_.size() < capacity) {
    std::optional<Job> j = next_job();
    if (!j) {
      source_done_ = true;
      break;
    }
    queue_.push_back(std::move(*j));
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
  }
}

/// Nothing is left to run and no worker is left alive.
bool Supervisor::finished() const { return !work_remaining() && live() == 0; }

/// Respawn dead slots, each past its backoff and within its budget, while
/// there is queued work they could take. False when the pool can make no
/// further progress: run() then returns SpawnFailed and the caller degrades.
bool Supervisor::respawn() {
  if (aborting_) return true;
  std::size_t ready = 0;  // workers that are or will become available
  for (const Slot& s : slots_) {
    if (s.state == State::Idle || s.state == State::Spawning) ++ready;
  }
  bool failed = false;
  const double now = now_sec();
  for (Slot& s : slots_) {
    if (s.state != State::Dead) continue;
    if (ready >= queue_.size()) break;
    if (s.respawns > kMaxRespawns || now < s.next_spawn_at) continue;
    if (spawn(s)) {
      ++ready;
    } else if (++consecutive_fork_failures_ >= kForkFailuresBeforeDegrade &&
               live() == 0) {
      failed = true;
    } else {
      schedule_respawn(s);
    }
  }
  // No worker alive, none can ever come back, work still queued.
  const bool respawnable =
      std::any_of(slots_.begin(), slots_.end(), [](const Slot& s) {
        return s.respawns <= kMaxRespawns;
      });
  return !failed && (respawnable || live() > 0 || !work_remaining());
}

/// Dead -> Spawning: fork a fresh incarnation into the slot.
bool Supervisor::spawn(Slot& s) {
  int fds[6] = {-1, -1, -1, -1, -1, -1};
  int* ctl = fds;
  int* res = fds + 2;
  int* err = fds + 4;
  auto close_all = [&fds] {
    for (int fd : fds) {
      if (fd >= 0) close(fd);
    }
  };
  if (pipe(ctl) != 0 || pipe(res) != 0 || pipe(err) != 0) {
    close_all();
    return false;
  }
  fflush(nullptr);
  const pid_t pid = checked_fork();
  if (pid < 0) {
    close_all();
    ++stats_.spawn_failures;
    return false;
  }
  if (pid == 0) {
    // ----- worker -----
    close(ctl[1]);
    close(res[0]);
    close(err[0]);
    for (int fd : g_sigchld_pipe) {
      if (fd >= 0) close(fd);
    }
    worker_entry(cfg_, client_, ctl[0], res[1], err[1]);
  }
  // ----- supervisor -----
  close(ctl[0]);
  close(res[1]);
  close(err[1]);
  set_nonblocking(res[0]);
  set_nonblocking(err[0]);
  const int kept_respawns = s.respawns;
  const std::uint64_t kept_affinity = s.last_affinity;
  s = Slot{};  // a fresh incarnation that keeps the slot's history
  s.pid = pid;
  s.ctl_wr = ctl[1];
  s.res_rd = res[0];
  s.err_rd = err[0];
  s.state = State::Spawning;
  s.due = now_sec() + kGraceSec;
  s.respawns = kept_respawns;
  s.last_affinity = kept_affinity;
  ++stats_.spawns;
  consecutive_fork_failures_ = 0;
  return true;
}

/// The backoff before a slot's next spawn: doubles per respawn, capped.
void Supervisor::schedule_respawn(Slot& s) {
  ++s.respawns;
  const int backoff = kRespawnBackoffMs << std::min(s.respawns - 1, 6);
  s.next_spawn_at =
      now_sec() + std::min(backoff, kRespawnBackoffCapMs) / 1000.0;
}

/// Dispatch queued jobs to idle workers, affinity first. Pass 1 gives each
/// idle worker the first queued job matching the key it last ran (warm
/// arenas). Pass 2 hands the remaining idle workers jobs whose keys no live
/// worker has claimed — a claimed key's jobs wait for their warm worker
/// rather than being spread across the pool, so per-key setup happens once
/// per pool, not once per worker. Progress is guaranteed: a claimed key's
/// owner is Idle (pass 1 feeds it this round), Busy/Spawning (it will pull
/// the key's jobs when it frees up), or dies (respawn keeps the claim; a
/// slot past its respawn budget stays Dead, and Dead slots claim nothing).
/// The core budget only delays a job: every job fits once nothing is in
/// flight.
void Supervisor::dispatch() {
  if (aborting_) return;
  // Oversubscription guard: admit a job only while its cores fit the budget
  // beside the jobs in flight. A wide job waits until enough narrow ones
  // finish (or nothing runs, for one as wide as the machine); idle workers
  // it leaves unused keep their warm affinity partitions and stand by as
  // crash-containment spares.
  const int budget = cfg_.core_budget;
  int inflight = 0;
  for (const Slot& s : slots_) {
    if (s.state == State::Busy) inflight += cores_of(*s.job);
  }
  auto admit = [&](Slot& s, std::deque<Job>::iterator it) {
    const int cores = cores_of(*it);
    if (inflight + cores > budget || !send_job(s, it)) return false;
    inflight += cores;
    stats_.peak_cores_inflight = std::max(stats_.peak_cores_inflight, inflight);
    return true;
  };
  for (Slot& s : slots_) {
    if (queue_.empty() || inflight >= budget) break;
    if (s.state != State::Idle || s.last_affinity == 0) continue;
    const auto it =
        std::find_if(queue_.begin(), queue_.end(), [&](const Job& j) {
          return j.affinity == s.last_affinity;
        });
    if (it != queue_.end() && admit(s, it)) ++stats_.affinity_hits;
  }
  for (Slot& s : slots_) {
    if (queue_.empty() || inflight >= budget) break;
    if (s.state != State::Idle) continue;
    const auto it =
        std::find_if(queue_.begin(), queue_.end(), [&](const Job& j) {
          return !claimed_elsewhere(j.affinity, s);
        });
    if (it == queue_.end()) continue;
    // A disposable worker never runs a second key: recycle it, and its
    // fresh successor takes the job.
    if (cfg_.disposable && s.ran_job && it->affinity != s.last_affinity) {
      drain(s);
    } else {
      admit(s, it);
    }
  }
}

/// Idle -> Busy: send the job at `it` to the slot's worker.
bool Supervisor::send_job(Slot& s, std::deque<Job>::iterator it) {
  Job job = std::move(*it);
  queue_.erase(it);
  if (client_.before_dispatch) client_.before_dispatch(job);
  char header[32];
  std::snprintf(header, sizeof(header), "job %llu",
                static_cast<unsigned long long>(job.id));
  const std::string frame = frame_encode(record_encode(header, job.payload));
  if (!write_all(s.ctl_wr, frame.data(), frame.size())) {
    // The worker died between poll rounds: give the job back and leave the
    // slot to the reap, which recycles it.
    queue_.push_front(std::move(job));
    signal_worker(s, SIGKILL);
    return false;
  }
  s.last_affinity = job.affinity;
  s.ran_job = true;
  s.job = std::move(job);
  s.state = State::Busy;
  s.dispatched_at = now_sec();
  s.due = cfg_.job_deadline_sec > 0.0
              ? s.dispatched_at + cfg_.job_deadline_sec
              : kNever;
  ++stats_.jobs_dispatched;
  return true;
}

/// Once the source has dried up (or the client aborted) and nothing is
/// queued, idle workers have nothing left to do.
void Supervisor::drain_idle() {
  if (!(source_done_ || aborting_) || !queue_.empty()) return;
  for (Slot& s : slots_) {
    if (s.state == State::Idle) drain(s);
  }
}

/// Idle -> Draining: ask the worker to finish up; bye and a clean exit are
/// due within the grace.
void Supervisor::drain(Slot& s) {
  s.state = State::Draining;
  s.due = now_sec() + kGraceSec;
  const std::string frame = frame_encode("drain");
  // A failed write means the worker already died; the reap sorts it out.
  write_all(s.ctl_wr, frame.data(), frame.size());
}

/// Wait one poll tick on every live stream plus the SIGCHLD self-pipe, and
/// read whatever arrived.
void Supervisor::poll_frames() {
  std::vector<pollfd> fds;
  std::vector<Slot*> owner;
  if (g_sigchld_pipe[0] >= 0) {
    fds.push_back({g_sigchld_pipe[0], POLLIN, 0});
    owner.push_back(nullptr);
  }
  for (Slot& s : slots_) {
    for (const int fd : {s.res_rd, s.err_rd}) {
      if (fd < 0) continue;
      fds.push_back({fd, POLLIN, 0});
      owner.push_back(&s);
    }
  }
  if (poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollTickMs) <= 0) {
    return;
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    if (owner[i] != nullptr) {
      read_slot(*owner[i]);
      continue;
    }
    char buf[64];
    while (read(g_sigchld_pipe[0], buf, sizeof(buf)) > 0) {
    }
  }
}

/// Drain every readable byte from a slot's pipes, and hand each frame to
/// on_frame for as long as the slot's state reads its stream.
void Supervisor::read_slot(Slot& s) {
  char buf[4096];
  ssize_t n = 0;
  if (s.res_rd >= 0) {
    // EOF or a hard error ends the read; the reap follows via SIGCHLD.
    while ((n = read(s.res_rd, buf, sizeof(buf))) > 0) {
      s.reader.feed(buf, static_cast<std::size_t>(n));
    }
    std::string payload;
    while (s.state != State::Terminating && s.state != State::Killed) {
      const FrameReader::Status st = s.reader.next(payload);
      if (st != FrameReader::Status::Frame) {
        if (st == FrameReader::Status::Corrupt) protocol_error(s);
        break;
      }
      on_frame(s, payload);
    }
  }
  if (s.err_rd >= 0) {
    while ((n = read(s.err_rd, buf, sizeof(buf))) > 0) {
      append_tail(s.stderr_tail, buf, static_cast<std::size_t>(n));
    }
  }
}

/// One frame, checked against what the slot's state accepts (see State).
void Supervisor::on_frame(Slot& s, const std::string& payload) {
  Record rec;
  if (!record_decode(payload, rec)) {
    protocol_error(s);
  } else if (s.state == State::Spawning && rec.type == "hello" &&
             static_cast<int>(rec.a) == kProtocolVersion) {
    hello(s);
  } else if (s.state == State::Busy && rec.type == "result" &&
             rec.a == s.job->id) {
    complete(s, rec.body);
  } else if (s.state == State::Draining && rec.type == "final") {
    stats_.ring_payload_bytes += rec.body.size();
    if (client_.on_final) client_.on_final(rec.body);
  } else if (s.state != State::Draining || rec.type != "bye") {
    protocol_error(s);
  }  // bye acknowledges the drain; the reap finishes the slot
}

/// Spawning -> Idle.
void Supervisor::hello(Slot& s) {
  s.state = State::Idle;
  s.due = kNever;
  // A disposable pool recycles by design, and the client's retries and
  // quarantine already bound deaths per job, so only a worker that dies
  // before hello counts against its respawn budget.
  if (cfg_.disposable) s.respawns = 0;
}

/// Busy -> Idle: the job's result arrived.
void Supervisor::complete(Slot& s, const std::string& result) {
  stats_.ring_payload_bytes += result.size();
  Job job = take_job(s);
  s.state = State::Idle;
  s.due = kNever;
  ++stats_.jobs_completed;
  Disposition d = Disposition::Done;
  if (client_.on_result) d = client_.on_result(job, result);
  settle(d, std::move(job));
}

void Supervisor::protocol_error(Slot& s) {
  ++stats_.corrupt_frames;
  signal_worker(s, SIGKILL, FailReason::ProtocolCorrupt);
}

/// The one transition that signals a live worker. SIGTERM leaves it the
/// grace to exit (Terminating); SIGKILL leaves the slot to the reap
/// (Killed). Either way its stream is read no further. The in-flight job
/// fails with `reason`, or goes unresolved once the pool is interrupted.
void Supervisor::signal_worker(Slot& s, int sig, FailReason reason) {
  if (s.pid > 0) kill(s.pid, sig);
  s.state = sig == SIGKILL ? State::Killed : State::Terminating;
  s.due = sig == SIGKILL ? kNever : now_sec() + kGraceSec;
  if (!s.job) return;
  if (interrupted_) {
    take_job(s);
    return;
  }
  JobFailure f;
  f.reason = reason;
  fail(s, f);
}

/// Hand the slot's job, which came back without a result, to the client.
void Supervisor::fail(Slot& s, JobFailure f) {
  f.stderr_tail = s.stderr_tail;
  Job job = take_job(s);
  ++stats_.jobs_failed;
  Disposition d = Disposition::Done;
  if (client_.on_failure) d = client_.on_failure(job, f);
  settle(d, std::move(job));
}

/// Apply the client's verdict: a retry goes to the front of the queue.
void Supervisor::settle(Disposition d, Job&& job) {
  if (d == Disposition::Retry) {
    queue_.push_front(std::move(job));
  } else if (d == Disposition::Abort) {
    aborting_ = true;
    queue_.clear();
  }
}

/// Take the in-flight job off a slot, charging its cores for the time it
/// held them.
Job Supervisor::take_job(Slot& s) {
  core_seconds_ += cores_of(*s.job) * (now_sec() - s.dispatched_at);
  Job job = std::move(*s.job);
  s.job.reset();
  return job;
}

/// The single wait loop: reaps every dead pooled worker (no zombies), folds
/// its rusage into the stats, and fails its in-flight job.
void Supervisor::reap() {
  for (;;) {
    int status = 0;
    rusage ru;
    memset(&ru, 0, sizeof(ru));
    const pid_t pid = wait4(-1, &status, WNOHANG, &ru);
    if (pid <= 0) return;
    const auto it = std::find_if(slots_.begin(), slots_.end(),
                                 [pid](const Slot& s) { return s.pid == pid; });
    if (it == slots_.end()) continue;  // not ours (defensive)
    Slot& s = *it;
    s.pid = -1;    // reaped: the pid may be reused, so nothing may signal it
    read_slot(s);  // final frames may have raced the exit
    WorkerUsage usage;
    usage.max_rss_kb = ru.ru_maxrss;
    usage.user_sec = static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    usage.sys_sec = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    stats_.peak_rss_kb = std::max(stats_.peak_rss_kb, usage.max_rss_kb);
    stats_.child_user_sec += usage.user_sec;
    stats_.child_sys_sec += usage.sys_sec;
    if (s.job) {
      // Child-initiated death mid-job: crash, OOM exit, SIGXCPU, ...
      JobFailure f;
      f.exited = WIFEXITED(status);
      f.exit_code = f.exited ? WEXITSTATUS(status) : 0;
      f.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
      f.usage = usage;
      fail(s, f);
    }
    const bool drained = s.state == State::Draining && WIFEXITED(status) &&
                         WEXITSTATUS(status) == 0;
    if (!drained && !interrupted_) {
      ++stats_.recycles;
      schedule_respawn(s);
    }
    close_fds(s);
    s.state = State::Dead;
    s.due = kNever;
  }
}

/// Deadlines, the only liveness check; what one means follows from the
/// state (see State). A Busy worker past its job's deadline gets SIGTERM and
/// the grace to exit, and its job fails now; any other worker past its due
/// gets SIGKILL.
void Supervisor::expire_deadlines() {
  const double now = now_sec();
  for (Slot& s : slots_) {
    if (now < s.due) continue;
    if (s.state == State::Busy) {
      ++stats_.deadline_kills;
      signal_worker(s, SIGTERM, FailReason::DeadlineKilled);
    } else {
      signal_worker(s, SIGKILL);
    }
  }
}

bool Supervisor::claimed_elsewhere(std::uint64_t key, const Slot& self) const {
  if (key == 0) return false;
  return std::any_of(slots_.begin(), slots_.end(), [&](const Slot& o) {
    return &o != &self && o.last_affinity == key &&
           (o.state == State::Idle || o.state == State::Busy ||
            o.state == State::Spawning);
  });
}

std::size_t Supervisor::live() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.state != State::Dead; }));
}

bool Supervisor::work_remaining() const {
  return !queue_.empty() || (!source_done_ && !aborting_) ||
         std::any_of(slots_.begin(), slots_.end(),
                     [](const Slot& s) { return s.job.has_value(); });
}

}  // namespace

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
  if (cfg_.core_budget < 1) {
    cfg_.core_budget =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  stats_.core_budget = cfg_.core_budget;
}

WorkerPool::~WorkerPool() = default;

PoolOutcome WorkerPool::run(
    const std::function<std::optional<Job>()>& next_job) {
  stats_ = PoolStats{};
  stats_.core_budget = cfg_.core_budget;
  Supervisor sup(cfg_, client_, stats_);
  for (;;) {
    sup.check_interrupt();
    sup.pull(next_job);
    if (sup.finished()) break;
    if (!sup.respawn()) return PoolOutcome::SpawnFailed;
    sup.dispatch();
    sup.drain_idle();
    sup.poll_frames();
    sup.reap();
    sup.expire_deadlines();
  }
  return sup.interrupted() ? PoolOutcome::Interrupted : PoolOutcome::Completed;
}

}  // namespace rperf::sandbox
