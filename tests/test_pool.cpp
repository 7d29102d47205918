// Tests for rperf::sandbox::WorkerPool and the executor's pooled execution
// path (--workers): the framed protocol, supervised crash recycling, the
// central deadlines that are the pool's only liveness check (a stopped
// worker, a worker that never says hello, a hung job), backpressure, an
// interrupt mid-run, crash-loop quarantine, fork-failure degradation, and
// bit-identical parity of pooled vs in-process results.
//
// OpenMP note: pooled workers are forked from the test process, so the
// fixture pins OpenMP to one thread and the sweeps stick to Seq variants
// (a forked copy of a live libgomp thread pool deadlocks). Executor tests
// that compare against in-process execution always run the pooled half
// FIRST for the same reason.
#include <gtest/gtest.h>
#include <omp.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <filesystem>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "faults/injector.hpp"
#include "instrument/json.hpp"
#include "sandbox/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/sandbox.hpp"
#include "suite/executor.hpp"
#include "util/crc32.hpp"

namespace {

using namespace rperf;
using namespace rperf::suite;
using sandbox::Disposition;
using sandbox::FailReason;
using sandbox::FrameReader;
using sandbox::Job;
using sandbox::JobFailure;
using sandbox::PoolClient;
using sandbox::PoolConfig;
using sandbox::PoolOutcome;
using sandbox::WorkerPool;

/// After run() returns there must be no child left to reap — dead workers
/// were waited inline, live ones killed and waited in teardown.
void expect_no_children() {
  errno = 0;
  const pid_t got = waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(got == -1 && errno == ECHILD)
      << "waitpid found leftover children (got pid " << got << ")";
}

RunParams pooled_params() {
  RunParams p;
  p.size_factor = 0.01;
  p.reps_factor = 0.1;
  p.min_reps = 2;
  p.retry_backoff_ms = 0;
  p.isolate = IsolationMode::Cell;
  p.workers = 2;
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq, VariantID::Lambda_Seq};
  return p;
}

const RunResult* find_cell(const Executor& exec, const std::string& kernel,
                           VariantID v) {
  for (const auto& r : exec.results()) {
    if (r.kernel == kernel && r.variant == v) return &r;
  }
  return nullptr;
}

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    omp_set_num_threads(1);
    faults::injector().reset();
    sandbox::clear_interrupt();
    sandbox::pool_testing::fail_next_forks(0);
  }
  void TearDown() override {
    faults::injector().reset();
    sandbox::clear_interrupt();
    sandbox::pool_testing::fail_next_forks(0);
  }
};

// ------------------------------------------------------- framed protocol

TEST_F(PoolTest, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0u);
}

TEST_F(PoolTest, FrameRoundTripsThroughSplitFeeds) {
  const std::string payload = "result 42\n{\"status\":\"Passed\"}";
  const std::string wire = sandbox::frame_encode(payload) +
                           sandbox::frame_encode("bye");
  FrameReader reader;
  // Byte-by-byte feeding must reassemble both frames intact.
  std::vector<std::string> out;
  for (char c : wire) {
    reader.feed(&c, 1);
    std::string p;
    while (reader.next(p) == FrameReader::Status::Frame) out.push_back(p);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], payload);
  EXPECT_EQ(out[1], "bye");
  EXPECT_FALSE(reader.corrupt());
}

TEST_F(PoolTest, CorruptCrcLatchesTheStream) {
  const std::string wire =
      sandbox::frame_encode("job 1\nx", /*corrupt_crc=*/true) +
      sandbox::frame_encode("job 2\ny");
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  std::string p;
  EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
  EXPECT_TRUE(reader.corrupt());
  // No resync: the good frame behind the torn one is unreachable by
  // design (the supervisor kills the worker instead).
  EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
}

TEST_F(PoolTest, BadMagicAndOversizeFramesAreCorrupt) {
  {
    std::string wire = sandbox::frame_encode("hello 2 1");
    wire[0] = 'X';  // clobber the magic
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    std::string p;
    EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
  }
  {
    // A length field past kMaxFramePayload must be rejected up front, not
    // buffered to exhaustion.
    std::string wire = sandbox::frame_encode("x");
    const std::uint32_t huge = sandbox::kMaxFramePayload + 1;
    std::memcpy(wire.data() + 4, &huge, sizeof huge);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    std::string p;
    EXPECT_EQ(reader.next(p), FrameReader::Status::Corrupt);
  }
}

// ----------------------------------------------------- pool: happy path

TEST_F(PoolTest, PoolRunsEveryJobAndLeavesNoZombies) {
  PoolConfig cfg;
  cfg.workers = 3;
  PoolClient client;
  client.run_job = [](const std::string& payload) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return "echo:" + payload;
  };
  std::vector<std::string> results(8);
  std::atomic<int> resolved{0};
  client.before_dispatch = [](Job& job) {
    job.payload = "job" + std::to_string(job.id);
  };
  client.on_result = [&](const Job& job, const std::string& result) {
    results[job.id] = result;
    ++resolved;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= results.size()) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(resolved.load(), 8);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], "echo:job" + std::to_string(i));
  }
  const auto& st = pool.stats();
  EXPECT_EQ(st.jobs_completed, 8u);
  EXPECT_EQ(st.recycles, 0u);
  expect_no_children();
}

// ------------------------------------------------ pool: crash recycling

TEST_F(PoolTest, SigkilledBusyWorkerIsRecycledAndJobRetried) {
  PoolConfig cfg;
  cfg.workers = 2;
  // Parent-authoritative attempt counts drive the payload, so the retry
  // of a killed job runs clean on the fresh worker.
  std::vector<int> attempts(4, 0);
  PoolClient client;
  client.before_dispatch = [&](Job& job) {
    job.payload = (job.id == 1 && attempts[job.id] == 0) ? "die" : "ok";
    ++attempts[job.id];
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "die") raise(SIGKILL);
    return "done";
  };
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    EXPECT_EQ(job.id, 1u);
    EXPECT_EQ(f.reason, FailReason::WorkerDied);
    EXPECT_FALSE(f.exited);
    EXPECT_EQ(f.signal, SIGKILL);
    ++failures;
    return Disposition::Retry;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= attempts.size()) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(completed.load(), 4);  // every job resolved, incl. the retry
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(attempts[1], 2);
  EXPECT_GE(pool.stats().recycles, 1u);
  // The retry may land on the surviving worker before the respawn
  // completes, so only the initial spawns are guaranteed.
  EXPECT_GE(pool.stats().spawns, 2u);
  expect_no_children();
}

TEST_F(PoolTest, StoppedBusyWorkerIsDeadlineKilledAndReplaced) {
  // A stopped worker is alive but silent: no result, no exit, no SIGCHLD.
  // Only the job's deadline notices, and since SIGTERM stays pending on a
  // stopped process, only the SIGKILL after the grace reclaims it.
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.job_deadline_sec = 0.3;
  PoolClient client;
  client.before_dispatch = [](Job& job) {
    job.payload = job.id == 0 ? "stop" : "ok";
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "stop") raise(SIGSTOP);
    return "done";
  };
  std::atomic<int> completed{0};
  std::atomic<int> deadline_failures{0};
  client.on_result = [&](const Job& job, const std::string&) {
    EXPECT_EQ(job.id, 1u);
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    EXPECT_EQ(job.id, 0u);
    EXPECT_EQ(f.reason, FailReason::DeadlineKilled);
    ++deadline_failures;
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 2) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(deadline_failures.load(), 1);
  EXPECT_EQ(completed.load(), 1);  // the second job ran on the replacement
  EXPECT_EQ(pool.stats().deadline_kills, 1u);
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(pool.stats().spawns, 2u);
  expect_no_children();
}

TEST_F(PoolTest, WorkerThatNeverSaysHelloIsKilledAndReplaced) {
  // The first incarnation blocks before hello. The supervisor gives it the
  // grace, kills it, and spawns a replacement that runs every job. Workers
  // are forked, so the incarnation count lives in a shared mapping.
  void* shared = mmap(nullptr, sizeof(std::atomic<int>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1,
                      0);
  ASSERT_NE(shared, MAP_FAILED);
  auto* starts = new (shared) std::atomic<int>(0);
  PoolConfig cfg;
  cfg.workers = 1;
  PoolClient client;
  client.on_worker_start = [starts] {
    if (starts->fetch_add(1) == 0) {
      for (;;) pause();
    }
  };
  client.before_dispatch = [](Job& job) {
    job.payload = std::to_string(job.id);
  };
  client.run_job = [](const std::string& payload) { return payload; };
  std::vector<bool> done(3, false);
  client.on_result = [&](const Job& job, const std::string& result) {
    EXPECT_EQ(result, std::to_string(job.id));
    done[job.id] = true;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= done.size()) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_TRUE(done[i]) << "job " << i << " was lost";
  }
  EXPECT_EQ(starts->load(), 2);
  EXPECT_EQ(pool.stats().spawns, 2u);
  EXPECT_EQ(pool.stats().recycles, 1u);
  // Nothing was dispatched to the silent worker.
  EXPECT_EQ(pool.stats().jobs_dispatched, done.size());
  expect_no_children();
  munmap(shared, sizeof(std::atomic<int>));
}

TEST_F(PoolTest, CorruptResultFrameFailsTheJobAndRecyclesTheWorker) {
  PoolConfig cfg;
  cfg.workers = 1;
  PoolClient client;
  std::vector<int> attempts(2, 0);
  client.before_dispatch = [&](Job& job) {
    job.payload = (job.id == 0 && attempts[job.id] == 0) ? "corrupt" : "ok";
    ++attempts[job.id];
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "corrupt") WorkerPool::corrupt_next_frame();
    return "done";
  };
  std::atomic<int> completed{0};
  std::atomic<int> corrupt_failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    EXPECT_EQ(job.id, 0u);
    EXPECT_EQ(f.reason, FailReason::ProtocolCorrupt);
    ++corrupt_failures;
    return Disposition::Retry;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 2) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(corrupt_failures.load(), 1);
  EXPECT_EQ(completed.load(), 2);  // retry + the clean job
  EXPECT_GE(pool.stats().corrupt_frames, 1u);
  EXPECT_GE(pool.stats().recycles, 1u);
  expect_no_children();
}

TEST_F(PoolTest, JobDeadlineIsEnforcedCentrally) {
  PoolConfig cfg;
  cfg.workers = 1;
  cfg.job_deadline_sec = 0.3;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "hang"; };
  client.run_job = [](const std::string&) -> std::string {
    for (int i = 0; i < 6000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return "done";
  };
  std::atomic<int> deadline_failures{0};
  client.on_result = [&](const Job&, const std::string&) {
    ADD_FAILURE() << "hung job produced a result";
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    EXPECT_EQ(f.reason, FailReason::DeadlineKilled);
    ++deadline_failures;
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 1) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(deadline_failures.load(), 1);
  EXPECT_GE(pool.stats().deadline_kills, 1u);
  expect_no_children();
}

// ------------------------------------------------------ pool: interrupt

TEST_F(PoolTest, InterruptMidRunKillsInFlightWorkersAndReturnsInterrupted) {
  // Job 0 sleeps; every other job returns at once, and the first result
  // latches SIGINT. The pool must stop pulling, leave the sleeping job
  // unresolved (the caller marks it skipped), kill both workers without
  // counting them as recycles, and return promptly.
  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  client.before_dispatch = [](Job& job) {
    job.payload = job.id == 0 ? "sleep" : "ok";
  };
  client.run_job = [](const std::string& payload) -> std::string {
    if (payload == "sleep") {
      std::this_thread::sleep_for(std::chrono::seconds(10));
    }
    return "done";
  };
  std::vector<std::uint64_t> resolved;
  client.on_result = [&](const Job& job, const std::string&) {
    resolved.push_back(job.id);
    sandbox::request_interrupt(SIGINT);
    return Disposition::Done;
  };
  client.on_failure = [&](const Job& job, const JobFailure& f) {
    resolved.push_back(job.id);
    ADD_FAILURE() << "job " << job.id << " failed: " << f.describe();
    return Disposition::Done;
  };

  std::uint64_t next = 0;
  std::size_t pulls_after_interrupt = 0;
  WorkerPool pool(cfg, client);
  const auto t0 = std::chrono::steady_clock::now();
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    // Endless until the interrupt: only backpressure and the interrupt may
    // stop the pulls. A pull after it is counted, and ends the source so a
    // pool that kept pulling still returns.
    if (sandbox::interrupt_signal() != 0) {
      ++pulls_after_interrupt;
      return std::nullopt;
    }
    Job j;
    j.id = next++;
    return j;
  });
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  EXPECT_EQ(out, PoolOutcome::Interrupted);
  EXPECT_LT(secs, 2.0);
  EXPECT_EQ(pool.stats().jobs_dispatched, 2u);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_NE(resolved[0], 0u) << "the in-flight job got a callback";
  EXPECT_EQ(pulls_after_interrupt, 0u);
  EXPECT_EQ(pool.stats().recycles, 0u);
  expect_no_children();
}

// --------------------------------------------------- pool: backpressure

TEST_F(PoolTest, BackpressureBoundsOutstandingPulls) {
  PoolConfig cfg;
  cfg.workers = 1;
  const std::size_t capacity =
      sandbox::kQueueSlotsPerWorker * static_cast<std::size_t>(cfg.workers);
  // Twice what the queue and the workers can hold, so a greedy drain of the
  // source would overshoot the bound by half the jobs.
  const std::size_t jobs =
      2 * (capacity + static_cast<std::size_t>(cfg.workers));
  PoolClient client;
  client.before_dispatch = [](Job& job) {
    job.payload = std::to_string(job.id);
  };
  client.run_job = [](const std::string& payload) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return payload;
  };
  std::size_t completed = 0;
  std::size_t pulled = 0;
  std::size_t max_outstanding = 0;
  client.on_result = [&](const Job&, const std::string&) {
    ++completed;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (pulled >= jobs) return std::nullopt;
    // The pool may hold at most `capacity` pending jobs plus what the
    // workers have in flight; a greedy drain of the source would show up
    // as a larger gap between pulls and completions.
    max_outstanding = std::max(max_outstanding, pulled - completed);
    Job j;
    j.id = pulled++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  EXPECT_EQ(completed, jobs);
  EXPECT_LE(max_outstanding,
            capacity + static_cast<std::size_t>(cfg.workers));
  EXPECT_LE(pool.stats().peak_queue_depth, capacity);
  expect_no_children();
}

// Workers report their job's wall-clock interval; CLOCK_MONOTONIC is
// system-wide, so intervals from different worker processes compare
// directly. Under a 4-core budget a 4-core job must run with nothing
// beside it, a job wider than the budget must still run (alone) rather
// than deadlock, and 1-core jobs must share the budget.
TEST_F(PoolTest, CoreBudgetAdmitsJobsByCores) {
  constexpr int kBudget = 4;
  const std::vector<int> cores = {1, 1, 1, 1, 4, 1, 1, 1, 8, 1, 1, 1};
  PoolConfig cfg;
  cfg.workers = 4;
  cfg.core_budget = kBudget;
  PoolClient client;
  client.before_dispatch = [](Job& job) {
    job.payload = std::to_string(job.id);
  };
  client.run_job = [](const std::string& payload) {
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const auto t1 = std::chrono::steady_clock::now();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f %.6f",
                  std::chrono::duration<double>(t0.time_since_epoch()).count(),
                  std::chrono::duration<double>(t1.time_since_epoch()).count());
    return payload + " " + buf;
  };
  std::vector<std::pair<double, double>> intervals(cores.size(), {0.0, 0.0});
  std::vector<bool> done(cores.size(), false);
  client.on_result = [&](const Job& job, const std::string& result) {
    double t0 = 0.0;
    double t1 = 0.0;
    EXPECT_EQ(std::sscanf(result.c_str(), "%*u %lf %lf", &t0, &t1), 2);
    intervals[job.id] = {t0, t1};
    done[job.id] = true;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= cores.size()) return std::nullopt;
    Job j;
    j.cores = cores[next];
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::Completed);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    EXPECT_TRUE(done[i]) << "job " << i << " (" << cores[i]
                         << " cores) never completed";
  }
  auto overlap = [&](std::size_t a, std::size_t b) {
    return intervals[a].first < intervals[b].second &&
           intervals[b].first < intervals[a].second;
  };
  std::size_t narrow_overlaps = 0;
  for (std::size_t a = 0; a < cores.size(); ++a) {
    for (std::size_t b = a + 1; b < cores.size(); ++b) {
      if (!overlap(a, b)) continue;
      EXPECT_TRUE(cores[a] == 1 && cores[b] == 1)
          << "job " << a << " (" << cores[a] << " cores) overlapped job " << b
          << " (" << cores[b] << " cores)";
      ++narrow_overlaps;
    }
  }
  EXPECT_GE(narrow_overlaps, 1u) << "1-core jobs never shared the budget";
  EXPECT_EQ(pool.stats().core_budget, kBudget);
  EXPECT_LE(pool.stats().peak_cores_inflight, kBudget);
  EXPECT_GE(pool.stats().peak_cores_inflight, 2);
  EXPECT_GT(pool.stats().core_occupancy, 0.0);
  EXPECT_LE(pool.stats().core_occupancy, 1.0);
  expect_no_children();
}

TEST_F(PoolTest, PersistentPoolsDispatchNarrowCellsFirst) {
  // A plan of three kernels x every variant, in the executor's
  // kernel-major order, with the cores each cell's job would claim.
  std::vector<VariantID> plan;
  for (int k = 0; k < 3; ++k) {
    for (VariantID v : all_variants()) plan.push_back(v);
  }
  std::vector<int> cores;
  std::vector<std::size_t> seq;
  std::vector<std::size_t> omp;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const bool wide = is_openmp_variant(plan[i]);
    cores.push_back(wide ? 4 : 1);
    (wide ? omp : seq).push_back(i);
  }
  ASSERT_FALSE(seq.empty());
  ASSERT_FALSE(omp.empty());

  // --workers N: every Seq cell before any OpenMP cell, each group in
  // plan order.
  std::vector<std::size_t> narrow_first = seq;
  narrow_first.insert(narrow_first.end(), omp.begin(), omp.end());
  EXPECT_EQ(pooled_dispatch_order(cores, /*persistent=*/true), narrow_first);

  // --isolate cell|kernel: plan order, so a kernel's cells stay
  // contiguous and --isolate kernel spawns one worker per kernel.
  std::vector<std::size_t> plan_order(plan.size());
  for (std::size_t i = 0; i < plan_order.size(); ++i) plan_order[i] = i;
  EXPECT_EQ(pooled_dispatch_order(cores, /*persistent=*/false), plan_order);
}

// ------------------------------------------------- pool: fork degradation

TEST_F(PoolTest, UnspawnablePoolReportsSpawnFailed) {
  sandbox::pool_testing::fail_next_forks(-1);  // every fork fails
  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "x"; };
  client.run_job = [](const std::string& p) { return p; };
  std::atomic<int> callbacks{0};
  client.on_result = [&](const Job&, const std::string&) {
    ++callbacks;
    return Disposition::Done;
  };
  client.on_failure = [&](const Job&, const JobFailure&) {
    ++callbacks;
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  const PoolOutcome out = pool.run([&]() -> std::optional<Job> {
    if (next >= 3) return std::nullopt;
    Job j;
    j.id = next++;
    return j;
  });

  EXPECT_EQ(out, PoolOutcome::SpawnFailed);
  // Jobs the client never saw a callback for were not executed — the
  // caller can re-run them (the executor does so in-process).
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_GE(pool.stats().spawn_failures, 1u);
  EXPECT_EQ(pool.stats().spawns, 0u);
  expect_no_children();
}

// ------------------------------------------- pool: throwing client

TEST_F(PoolTest, ThrowingClientCallbackStillTearsThePoolDown) {
  // The executor throws out of on_result when the checkpoint cannot be
  // written; the exception must still leave no worker behind and restore
  // the caller's SIGCHLD and SIGPIPE dispositions.
  struct sigaction chld_before;
  struct sigaction pipe_before;
  ASSERT_EQ(sigaction(SIGCHLD, nullptr, &chld_before), 0);
  ASSERT_EQ(sigaction(SIGPIPE, nullptr, &pipe_before), 0);

  PoolConfig cfg;
  cfg.workers = 2;
  PoolClient client;
  client.before_dispatch = [](Job& job) { job.payload = "x"; };
  client.run_job = [](const std::string& p) { return p; };
  client.on_result = [](const Job&, const std::string&) -> Disposition {
    throw std::runtime_error("client gave up");
  };
  client.on_failure = [](const Job&, const JobFailure&) {
    return Disposition::Done;
  };

  std::size_t next = 0;
  WorkerPool pool(cfg, client);
  EXPECT_THROW((void)pool.run([&]() -> std::optional<Job> {
                 if (next >= 4) return std::nullopt;
                 Job j;
                 j.id = next++;
                 return j;
               }),
               std::runtime_error);

  struct sigaction chld_after;
  struct sigaction pipe_after;
  ASSERT_EQ(sigaction(SIGCHLD, nullptr, &chld_after), 0);
  ASSERT_EQ(sigaction(SIGPIPE, nullptr, &pipe_after), 0);
  EXPECT_EQ(chld_after.sa_handler, chld_before.sa_handler);
  EXPECT_EQ(pipe_after.sa_handler, pipe_before.sa_handler);
  expect_no_children();
}

// ----------------------------------------------- run params (CLI flags)

TEST_F(PoolTest, RunParamsParsePoolFlags) {
  const char* argv[] = {"prog", "--workers", "4"};
  const RunParams p = RunParams::parse(3, argv);
  EXPECT_EQ(p.workers, 4);
  // --workers alone implies cell isolation.
  EXPECT_EQ(p.isolate, IsolationMode::Cell);

  const char* bad[] = {"prog", "--workers", "-1"};
  EXPECT_THROW(RunParams::parse(3, bad), std::invalid_argument);
  // The heartbeat and RLIMIT_CPU knobs are gone; the wall deadline
  // (--max-cell-seconds) is the pool's only liveness check.
  for (const char* gone : {"--heartbeat-interval-ms", "--heartbeat-timeout-ms",
                           "--sandbox-cpu-seconds"}) {
    const char* args[] = {"prog", gone, "100"};
    EXPECT_THROW(RunParams::parse(3, args), std::invalid_argument) << gone;
  }
}

TEST_F(PoolTest, WireFaultKindsParseAndFire) {
  const auto specs = faults::Injector::parse("protocorrupt@*");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].kind, faults::FaultKind::ProtocolCorrupt);
  EXPECT_TRUE(faults::is_process_fatal(faults::FaultKind::ProtocolCorrupt));
  // hbdrop went with the heartbeat; a wedged worker is 'hang'.
  EXPECT_THROW((void)faults::Injector::parse("hbdrop@K:1"),
               std::invalid_argument);

  auto& inj = faults::injector();
  inj.configure("protocorrupt@K:1", 7u);
  // Wire faults fire only via the explicit query, never via on_lifecycle.
  inj.on_lifecycle("K");
  EXPECT_EQ(inj.specs()[0].budget, 1);
  EXPECT_TRUE(inj.fire_wire_fault(faults::FaultKind::ProtocolCorrupt, "K"));
  EXPECT_FALSE(inj.fire_wire_fault(faults::FaultKind::ProtocolCorrupt, "K"));
  // Only the wire kind answers the wire query.
  inj.configure("hang@K:1", 7u);
  EXPECT_FALSE(inj.fire_wire_fault(faults::FaultKind::Hang, "K"));
  EXPECT_EQ(inj.specs()[0].budget, 1);
}

// ------------------------------------------- executor: pooled execution

TEST_F(PoolTest, PooledSweepIsBitIdenticalToInProcess) {
  // Pooled FIRST: the in-process half would warm an OpenMP pool the fork
  // must never inherit.
  RunParams p = pooled_params();
  Executor pooled(p);
  pooled.run();
  EXPECT_TRUE(pooled.all_passed());

  p.isolate = IsolationMode::None;
  p.workers = 0;
  Executor inproc(p);
  inproc.run();
  EXPECT_TRUE(inproc.all_passed());

  ASSERT_EQ(pooled.results().size(), inproc.results().size());
  for (const auto& r : inproc.results()) {
    const RunResult* q = find_cell(pooled, r.kernel, r.variant);
    ASSERT_NE(q, nullptr) << r.kernel;
    EXPECT_EQ(q->checksum, r.checksum) << r.kernel;  // bit-identical
    EXPECT_EQ(q->problem_size, r.problem_size) << r.kernel;
    EXPECT_EQ(q->reps, r.reps) << r.kernel;
  }
  EXPECT_GE(pooled.pool_stats().spawns, 1u);
  EXPECT_FALSE(pooled.degraded());
  expect_no_children();
}

TEST_F(PoolTest, PooledSegvIsRecycledRetriedAndBitIdentical) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_segv";
  std::filesystem::remove_all(dir);

  RunParams p = pooled_params();
  p.retries = 1;
  p.fault_spec = "segv@Basic_DAXPY:1";
  p.output_dir = dir.string();
  Executor exec(p);
  exec.run();

  // The crash consumed the fault budget; the retry on a fresh worker
  // passed, and the sweep lost nothing.
  EXPECT_TRUE(exec.all_passed());
  const RunResult* daxpy =
      find_cell(exec, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(daxpy, nullptr);
  EXPECT_EQ(daxpy->attempts, 2);
  EXPECT_GE(exec.pool_stats().recycles, 1u);

  // Forensics recorded the recycle with its pool-level reason.
  std::ifstream is((dir / "crashes.jsonl").string());
  std::string line;
  bool saw_crash = false;
  while (std::getline(is, line)) {
    const json::Value v = json::Value::parse(line);
    if (v.string_or("kind", "") == "crash" &&
        v.string_or("kernel", "") == "Basic_DAXPY") {
      saw_crash = true;
      EXPECT_EQ(v.string_or("reason", ""), "worker-died");
      EXPECT_EQ(v.string_or("signal_name", ""), "SIGSEGV");
    }
  }
  EXPECT_TRUE(saw_crash);

  // Bit-identical to a clean in-process run, crash and retry included.
  faults::injector().reset();
  RunParams q = pooled_params();
  q.isolate = IsolationMode::None;
  q.workers = 0;
  Executor inproc(q);
  inproc.run();
  const RunResult* ref = find_cell(inproc, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(daxpy->checksum, ref->checksum);

  expect_no_children();
  std::filesystem::remove_all(dir);
}

TEST_F(PoolTest, PooledProtocolCorruptionIsDetectedAndRetried) {
  RunParams p = pooled_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 1;
  p.fault_spec = "protocorrupt@Stream_TRIAD:1";
  Executor exec(p);
  exec.run();

  EXPECT_TRUE(exec.all_passed());
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].attempts, 2);
  EXPECT_GE(exec.pool_stats().corrupt_frames, 1u);
  EXPECT_GE(exec.pool_stats().recycles, 1u);
  expect_no_children();
}

TEST_F(PoolTest, PooledCrashLoopIsQuarantined) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_quarantine";
  std::filesystem::remove_all(dir);

  RunParams p = pooled_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 5;
  p.quarantine_after = 2;
  p.fault_spec = "segv@Basic_DAXPY";  // unlimited: every attempt crashes
  p.output_dir = dir.string();
  Executor exec(p);
  exec.run();

  // The circuit breaker opened after 2 worker kills; retries stopped even
  // though the budget allowed 5, and the healthy kernel was untouched.
  const RunResult* daxpy =
      find_cell(exec, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(daxpy, nullptr);
  EXPECT_EQ(daxpy->status, RunStatus::Crashed);
  EXPECT_EQ(daxpy->attempts, 2);
  const RunResult* triad =
      find_cell(exec, "Stream_TRIAD", VariantID::Base_Seq);
  ASSERT_NE(triad, nullptr);
  EXPECT_EQ(triad->status, RunStatus::Passed);

  std::ifstream is((dir / "crashes.jsonl").string());
  std::string line;
  bool quarantined = false;
  while (std::getline(is, line)) {
    const json::Value v = json::Value::parse(line);
    quarantined = quarantined || v.bool_or("quarantined", false);
  }
  EXPECT_TRUE(quarantined);

  expect_no_children();
  std::filesystem::remove_all(dir);
}

TEST_F(PoolTest, PooledForkFailureDegradesToInProcess) {
  sandbox::pool_testing::fail_next_forks(-1);
  RunParams p = pooled_params();
  Executor exec(p);
  exec.run();
  sandbox::pool_testing::fail_next_forks(0);

  // Every cell still ran — in-process, with the degradation recorded.
  EXPECT_TRUE(exec.all_passed());
  EXPECT_TRUE(exec.degraded());
  EXPECT_EQ(exec.pool_stats().spawns, 0u);
  EXPECT_GE(exec.pool_stats().spawn_failures, 1u);
  expect_no_children();
}

// --------------------------------------------- torn-sidecar robustness

TEST_F(PoolTest, TruncatedCrashRecordWarnsAndCountingStaysConservative) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_torncrash";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Two intact crash records push the cell to the quarantine threshold;
  // the torn third record must be warned about and dropped, not crash the
  // loader or corrupt the counts.
  {
    std::ofstream os((dir / "crashes.jsonl").string());
    const char* rec =
        "{\"kind\":\"crash\",\"kernel\":\"Basic_DAXPY\","
        "\"variant\":\"Base_Seq\",\"tuning\":\"default\","
        "\"status\":\"Crashed\",\"signal\":11}";
    os << rec << "\n" << rec << "\n";
    os << "{\"kind\":\"crash\",\"kernel\":\"Basic_DA";  // torn mid-append
  }
  std::ofstream((dir / "progress.jsonl").string());  // empty checkpoint

  RunParams p = pooled_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.quarantine_after = 2;
  p.resume = true;
  p.output_dir = dir.string();

  ::testing::internal::CaptureStderr();
  Executor exec(p);
  exec.run();
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(err.find("dropping truncated crash record"), std::string::npos)
      << err;
  // The two intact records still counted: the cell is quarantine-skipped.
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Skipped);
  EXPECT_NE(exec.results()[0].error.find("quarantined"), std::string::npos);

  expect_no_children();
  std::filesystem::remove_all(dir);
}

TEST_F(PoolTest, TruncatedProgressRecordWarnsOnPooledResume) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_pool_tornprogress";
  std::filesystem::remove_all(dir);

  RunParams p = pooled_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.output_dir = dir.string();
  {
    Executor exec(p);
    exec.run();
    EXPECT_TRUE(exec.all_passed());
  }
  // Chop the final checkpoint record mid-line, as a dying run would.
  const auto path = dir / "progress.jsonl";
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 20);

  p.resume = true;
  ::testing::internal::CaptureStderr();
  Executor exec(p);
  exec.run();
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(err.find("dropping truncated checkpoint record"),
            std::string::npos)
      << err;
  EXPECT_TRUE(exec.all_passed());
  std::size_t restored = 0;
  for (const auto& r : exec.results()) restored += r.restored ? 1 : 0;
  EXPECT_EQ(restored, 1u);  // intact record restored, torn one re-ran

  expect_no_children();
  std::filesystem::remove_all(dir);
}

}  // namespace
