// Tests for rperf::sandbox and the executor's sandboxed execution path:
// crash containment for every process-fatal fault kind, the disposable
// worker policies behind --isolate cell|kernel, forensics + quarantine,
// retry across workers, and parity of sandboxed vs in-process results for
// passing sweeps.
//
// OpenMP note: these tests fork the test process. A forked copy of a live
// libgomp thread pool deadlocks, so the fixture pins OpenMP to one thread
// (no parallel region is ever entered) and the sweeps stick to Seq
// variants. The executor itself is safe by construction — in sandbox modes
// the parent never executes kernels — but the in-process halves of the
// parity tests would otherwise warm the pool first.
#include <gtest/gtest.h>
#include <omp.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "instrument/json.hpp"
#include "instrument/profile.hpp"
#include "sandbox/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/sandbox.hpp"
#include "suite/executor.hpp"

namespace {

using namespace rperf;
using namespace rperf::suite;

RunParams sandbox_params() {
  RunParams p;
  p.size_factor = 0.01;
  p.reps_factor = 0.1;
  p.min_reps = 2;
  p.retry_backoff_ms = 0;
  p.isolate = IsolationMode::Cell;
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

class SandboxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    omp_set_num_threads(1);
    faults::injector().reset();
    sandbox::clear_interrupt();
  }
  void TearDown() override {
    faults::injector().reset();
    sandbox::clear_interrupt();
  }
};

// ------------------------------------------------------------ types/flags

TEST_F(SandboxTest, IsolationModeParsesAndPrints) {
  EXPECT_EQ(isolation_from_string("none"), IsolationMode::None);
  EXPECT_EQ(isolation_from_string("kernel"), IsolationMode::Kernel);
  EXPECT_EQ(isolation_from_string("cell"), IsolationMode::Cell);
  EXPECT_THROW((void)isolation_from_string("process"), std::invalid_argument);
  EXPECT_EQ(to_string(IsolationMode::Cell), "cell");
  // The new terminal statuses round-trip (progress.jsonl depends on it).
  for (RunStatus s :
       {RunStatus::Crashed, RunStatus::OutOfMemory, RunStatus::Killed}) {
    EXPECT_EQ(run_status_from_string(to_string(s)), s);
  }
}

TEST_F(SandboxTest, RunParamsParseSandboxFlags) {
  const char* argv[] = {"prog",
                        "--isolate", "cell",
                        "--quarantine-after", "2",
                        "--max-cell-seconds", "1.5",
                        "--sandbox-mem-mb", "512"};
  const RunParams p = RunParams::parse(9, argv);
  EXPECT_EQ(p.isolate, IsolationMode::Cell);
  EXPECT_EQ(p.quarantine_after, 2);
  EXPECT_DOUBLE_EQ(p.max_cell_seconds, 1.5);
  EXPECT_EQ(p.sandbox_mem_mb, 512u);

  // Every isolated cell has a wall deadline unless one opts out with 0.
  const char* none[] = {"prog", "--isolate", "cell"};
  EXPECT_DOUBLE_EQ(RunParams::parse(3, none).max_cell_seconds, 60.0);
  const char* off[] = {"prog", "--max-cell-seconds", "0"};
  EXPECT_DOUBLE_EQ(RunParams::parse(3, off).max_cell_seconds, 0.0);

  const char* bad[] = {"prog", "--quarantine-after", "0"};
  EXPECT_THROW(RunParams::parse(3, bad), std::invalid_argument);
  const char* badmode[] = {"prog", "--isolate", "thread"};
  EXPECT_THROW(RunParams::parse(3, badmode), std::invalid_argument);
}

TEST_F(SandboxTest, ProcessFatalFaultKindsParse) {
  const auto specs = faults::Injector::parse(
      "segv@Basic_DAXPY:1,abort@A,oom@B,hang@C");
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].kind, faults::FaultKind::Segv);
  EXPECT_EQ(specs[0].budget, 1);
  EXPECT_EQ(specs[1].kind, faults::FaultKind::Abort);
  EXPECT_EQ(specs[2].kind, faults::FaultKind::Oom);
  EXPECT_EQ(specs[3].kind, faults::FaultKind::Hang);
  for (const auto& s : specs) EXPECT_TRUE(faults::is_process_fatal(s.kind));
  EXPECT_FALSE(faults::is_process_fatal(faults::FaultKind::Throw));
}

TEST_F(SandboxTest, InjectorStateRoundTripsAndFoldsExternalFires) {
  auto& inj = faults::injector();
  inj.configure("segv@K:2,throw@L:5", 42u);
  const std::string state = inj.serialize_state();
  inj.note_external_fire(faults::FaultKind::Segv, "K");
  EXPECT_EQ(inj.specs()[0].budget, 1);
  inj.deserialize_state(state);  // restore
  EXPECT_EQ(inj.specs()[0].budget, 2);
  EXPECT_EQ(inj.specs()[1].budget, 5);
  // A mismatched state (different spec count) is ignored, not applied.
  inj.deserialize_state("1,2");
  EXPECT_EQ(inj.specs()[0].budget, 2);
  // External fire of a kind/kernel with no armed spec is a no-op.
  inj.note_external_fire(faults::FaultKind::Oom, "K");
  EXPECT_EQ(inj.specs()[0].budget, 2);
}

// ---------------------------------------------------------- protocol bits

TEST_F(SandboxTest, ChecksumHexRoundTripIsExact) {
  const long double values[] = {0.0L, 1.0L / 3.0L, 1234567.89012345678L,
                                -2.5e-300L};
  for (const long double v : values) {
    EXPECT_EQ(sandbox::checksum_from_hex(sandbox::checksum_to_hex(v)), v);
  }
}

TEST_F(SandboxTest, JsonBoolOrAndProfileValueRoundTrip) {
  const auto v = json::Value::parse(R"({"a": true, "b": 1})");
  EXPECT_TRUE(v.bool_or("a", false));
  EXPECT_FALSE(v.bool_or("b", false));  // wrong type -> default
  EXPECT_TRUE(v.bool_or("missing", true));

  cali::Channel ch;
  {
    cali::ScopedRegion r(ch, "K");
    ch.attribute_metric("flops", 42.0);
  }
  ch.set_metadata("variant", "Base_Seq");
  const cali::Profile prof = cali::to_profile(ch);
  const cali::Profile back =
      cali::profile_from_value(cali::profile_to_value(prof));
  EXPECT_EQ(back.node_count(), prof.node_count());
  ASSERT_NE(back.find("K"), nullptr);
  EXPECT_DOUBLE_EQ(back.find("K")->metrics.at("flops"), 42.0);
  EXPECT_EQ(back.metadata.at("variant"), "Base_Seq");

  // channel_from_profile rebuilds a mergeable channel.
  const cali::Channel rebuilt = cali::channel_from_profile(back);
  ASSERT_NE(rebuilt.root().find("K"), nullptr);
  EXPECT_EQ(rebuilt.root().find("K")->visit_count, 1u);
  EXPECT_EQ(rebuilt.metadata().at("variant"), "Base_Seq");
}

// ------------------------------------------- disposable worker policies

/// One job per affinity key, in order, on a one-worker pool. Each result
/// is the pid of the worker that ran it.
std::vector<std::string> run_keyed_jobs(bool disposable,
                                        const std::vector<std::uint64_t>& keys,
                                        sandbox::PoolStats& stats) {
  sandbox::PoolConfig cfg;
  cfg.workers = 1;
  cfg.disposable = disposable;
  sandbox::PoolClient client;
  client.run_job = [](const std::string&) { return std::to_string(getpid()); };
  std::vector<std::string> results(keys.size());
  client.on_result = [&](const sandbox::Job& job, const std::string& r) {
    results[job.id] = r;
    return sandbox::Disposition::Done;
  };
  client.on_failure = [](const sandbox::Job&, const sandbox::JobFailure& f) {
    ADD_FAILURE() << "unexpected failure: " << f.describe();
    return sandbox::Disposition::Done;
  };
  std::size_t next = 0;
  sandbox::WorkerPool pool(cfg, client);
  EXPECT_EQ(pool.run([&]() -> std::optional<sandbox::Job> {
              if (next >= keys.size()) return std::nullopt;
              sandbox::Job j;
              j.id = next;
              j.affinity = keys[next++];
              return j;
            }),
            sandbox::PoolOutcome::Completed);
  stats = pool.stats();
  return results;
}

TEST_F(SandboxTest, IsolateCellRunsEachCellInAFreshWorker) {
  // Four keys on a disposable pool: four worker processes, each reaped
  // with its rusage accounted.
  sandbox::PoolStats st;
  const auto out = run_keyed_jobs(true, {1, 3, 5, 7}, st);
  const std::set<std::string> pids(out.begin(), out.end());
  EXPECT_EQ(pids.size(), 4u);
  EXPECT_EQ(st.spawns, 4u);
  EXPECT_EQ(st.recycles, 0u) << "policy recycles are not deaths";
  EXPECT_GT(st.peak_rss_kb, 0);

  // A persistent worker runs every key.
  const auto kept = run_keyed_jobs(false, {1, 3}, st);
  EXPECT_EQ(kept[0], kept[1]);

  // --isolate cell keys the executor's jobs per cell: a worker per cell.
  RunParams p = sandbox_params();
  Executor exec(p);
  exec.run();
  EXPECT_TRUE(exec.all_passed());
  EXPECT_EQ(exec.pool_stats().spawns, 4u);
}

TEST_F(SandboxTest, IsolateKernelSharesOneWorkerPerKernel) {
  sandbox::PoolStats st;
  const auto out = run_keyed_jobs(true, {1, 1, 3, 3}, st);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(out[2], out[3]);
  EXPECT_NE(out[0], out[2]);
  EXPECT_EQ(st.spawns, 2u);

  // --isolate kernel keys them per kernel: two kernels, two workers.
  RunParams p = sandbox_params();
  p.isolate = IsolationMode::Kernel;
  Executor exec(p);
  exec.run();
  EXPECT_TRUE(exec.all_passed());
  EXPECT_EQ(exec.pool_stats().spawns, 2u);
}

TEST_F(SandboxTest, WorkerMapsEscapedBadAllocToOomExit) {
  sandbox::PoolConfig cfg;
  cfg.workers = 1;
  cfg.disposable = true;
  sandbox::PoolClient client;
  client.run_job = [](const std::string&) -> std::string {
    throw std::bad_alloc();
  };
  std::optional<sandbox::JobFailure> failure;
  client.on_result = [](const sandbox::Job&, const std::string&) {
    ADD_FAILURE() << "a job that threw bad_alloc produced a result";
    return sandbox::Disposition::Done;
  };
  client.on_failure = [&](const sandbox::Job&, const sandbox::JobFailure& f) {
    failure = f;
    return sandbox::Disposition::Done;
  };
  bool pulled = false;
  sandbox::WorkerPool pool(cfg, client);
  EXPECT_EQ(pool.run([&]() -> std::optional<sandbox::Job> {
              if (pulled) return std::nullopt;
              pulled = true;
              return sandbox::Job{};
            }),
            sandbox::PoolOutcome::Completed);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->reason, sandbox::FailReason::WorkerDied);
  EXPECT_TRUE(failure->exited);
  EXPECT_EQ(failure->exit_code, sandbox::kOomExitCode);
}

TEST_F(SandboxTest, SignalNamesAreReadable) {
  EXPECT_EQ(sandbox::signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(sandbox::signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(sandbox::signal_name(250), "SIG250");
}

TEST_F(SandboxTest, InterruptLatchIsSticky) {
  EXPECT_EQ(sandbox::interrupt_signal(), 0);
  sandbox::request_interrupt(SIGINT);
  EXPECT_EQ(sandbox::interrupt_signal(), SIGINT);
  sandbox::clear_interrupt();
  EXPECT_EQ(sandbox::interrupt_signal(), 0);
}

// ----------------------------------------------- executor: crash containment

TEST_F(SandboxTest, SegvIsContainedAndForensicsRecorded) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_sandbox_segv";
  std::filesystem::remove_all(dir);

  RunParams p = sandbox_params();
  p.output_dir = dir.string();
  p.fault_spec = "segv@Basic_DAXPY";
  Executor exec(p);
  exec.run();  // the parent must survive

  const RunResult* daxpy = find_cell(exec, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(daxpy, nullptr);
  EXPECT_EQ(daxpy->status, RunStatus::Crashed);
  EXPECT_NE(daxpy->error.find("worker"), std::string::npos);
  const RunResult* triad = find_cell(exec, "Stream_TRIAD", VariantID::Base_Seq);
  ASSERT_NE(triad, nullptr);
  EXPECT_EQ(triad->status, RunStatus::Passed);
  EXPECT_EQ(exec.status_counts().at(RunStatus::Crashed), 2u);  // both variants
  EXPECT_EQ(exec.status_counts().at(RunStatus::Passed), 2u);

  // Forensics: one crash record per dead worker, with the cell identity.
  ASSERT_TRUE(std::filesystem::exists(exec.crashes_path()));
  std::ifstream is(exec.crashes_path());
  std::string line;
  std::size_t records = 0;
  while (std::getline(is, line)) {
    const auto v = json::Value::parse(line);
    EXPECT_EQ(v.at("kind").as_string(), "crash");
    EXPECT_EQ(v.at("kernel").as_string(), "Basic_DAXPY");
    EXPECT_EQ(v.at("status").as_string(), "Crashed");
    ++records;
  }
  EXPECT_EQ(records, 2u);

  // The status report names the crash; the timing table marks it.
  EXPECT_NE(exec.status_report().find("Crashed Basic_DAXPY"),
            std::string::npos);
  EXPECT_NE(exec.timing_report().find("CRASHED"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST_F(SandboxTest, AbortIsContained) {
  RunParams p = sandbox_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.fault_spec = "abort@Basic_DAXPY";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Crashed);
}

TEST_F(SandboxTest, OomBecomesOutOfMemory) {
  RunParams p = sandbox_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.fault_spec = "oom@Basic_DAXPY";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::OutOfMemory);
}

TEST_F(SandboxTest, HangIsKilledAtTheDeadlineWithoutRetry) {
  RunParams p = sandbox_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.fault_spec = "hang@Basic_DAXPY";
  p.max_cell_seconds = 0.3;
  p.retries = 2;  // Killed is deterministic: must not retry
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Killed);
  EXPECT_EQ(exec.results()[0].attempts, 1);
  EXPECT_NE(exec.results()[0].error.find("deadline"), std::string::npos);
}

TEST_F(SandboxTest, CrashRetryRecoversWhenTheBudgetIsConsumed) {
  // A budget-1 segv kills the first worker. The parent folds the fire back
  // into the injector (the dead worker could not report), so the retry
  // worker inherits an exhausted budget and passes.
  RunParams p = sandbox_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.fault_spec = "segv@Basic_DAXPY:1";
  p.retries = 1;
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Passed);
  EXPECT_EQ(exec.results()[0].attempts, 2);
  EXPECT_TRUE(exec.all_passed());
}

TEST_F(SandboxTest, QuarantineStopsRetriesAndPersistsAcrossResume) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_sandbox_quarantine";
  std::filesystem::remove_all(dir);

  RunParams p = sandbox_params();
  p.kernel_filter = {"Basic_DAXPY"};
  p.variant_filter = {VariantID::Base_Seq};
  p.output_dir = dir.string();
  p.fault_spec = "segv@Basic_DAXPY";  // unlimited: crashes every attempt
  p.retries = 5;
  p.quarantine_after = 2;
  {
    Executor exec(p);
    exec.run();
    ASSERT_EQ(exec.results().size(), 1u);
    // Quarantine cuts the retry loop at 2 crashes, not 6 attempts.
    EXPECT_EQ(exec.results()[0].status, RunStatus::Crashed);
    EXPECT_EQ(exec.results()[0].attempts, 2);
  }

  // A --resume run skips the quarantined cell outright.
  p.resume = true;
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Skipped);
  EXPECT_NE(exec.results()[0].error.find("quarantined"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST_F(SandboxTest, IsolateKernelGroupsCellsPerWorker) {
  // Kernel granularity: one worker per kernel. A budget-1 segv kills the
  // DAXPY worker on its first cell; the respawned worker finishes the
  // kernel's remaining cell with the budget already consumed.
  RunParams p = sandbox_params();
  p.isolate = IsolationMode::Kernel;
  p.fault_spec = "segv@Basic_DAXPY:1";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 4u);
  EXPECT_EQ(exec.status_counts().at(RunStatus::Crashed), 1u);
  EXPECT_EQ(exec.status_counts().at(RunStatus::Passed), 3u);

  // Sandbox accounting lands in the profile metadata.
  const auto profiles = exec.profiles();
  ASSERT_FALSE(profiles.empty());
  EXPECT_EQ(profiles[0].metadata.at("isolate"), "kernel");
  EXPECT_GE(std::stoi(profiles[0].metadata.at("sandbox_children")), 2);
}

TEST_F(SandboxTest, InterruptSkipsRemainingCellsInBothModes) {
  for (const IsolationMode mode :
       {IsolationMode::None, IsolationMode::Cell}) {
    RunParams p = sandbox_params();
    p.isolate = mode;
    sandbox::request_interrupt(SIGINT);
    Executor exec(p);
    exec.run();
    sandbox::clear_interrupt();
    ASSERT_EQ(exec.results().size(), 4u) << to_string(mode);
    for (const auto& r : exec.results()) {
      EXPECT_EQ(r.status, RunStatus::Skipped) << to_string(mode);
      EXPECT_NE(r.error.find("interrupted by SIGINT"), std::string::npos);
    }
  }
}

// ------------------------------------------------ parity with in-process

TEST_F(SandboxTest, SandboxedSweepMatchesInProcessBitForBit) {
  // Same filters, no faults: the sandboxed sweep must agree with the
  // in-process sweep on every terminal fact — statuses, reps, problem
  // sizes, bit-identical long-double checksums (hexfloat wire format),
  // and the merged profiles' structure and analytic metrics. Sandboxed
  // runs first so no OpenMP state exists at fork time.
  RunParams p = sandbox_params();
  Executor sandboxed(p);
  sandboxed.run();

  p.isolate = IsolationMode::None;
  Executor inproc(p);
  inproc.run();

  ASSERT_EQ(sandboxed.results().size(), inproc.results().size());
  for (const auto& r : inproc.results()) {
    const RunResult* s = find_cell(sandboxed, r.kernel, r.variant);
    ASSERT_NE(s, nullptr) << r.kernel;
    EXPECT_EQ(s->status, RunStatus::Passed) << r.kernel;
    EXPECT_EQ(s->status, r.status) << r.kernel;
    EXPECT_EQ(s->reps, r.reps) << r.kernel;
    EXPECT_EQ(s->problem_size, r.problem_size) << r.kernel;
    EXPECT_EQ(s->checksum, r.checksum) << r.kernel;  // bit-identical
  }

  const auto sp = sandboxed.profiles();
  const auto ip = inproc.profiles();
  ASSERT_EQ(sp.size(), ip.size());
  for (std::size_t i = 0; i < sp.size(); ++i) {
    EXPECT_EQ(sp[i].node_count(), ip[i].node_count());
    ip[i].for_each([&](const std::string& path, const cali::ProfileNode& n) {
      const cali::ProfileNode* m = sp[i].find(path);
      ASSERT_NE(m, nullptr) << path;
      EXPECT_EQ(m->visit_count, n.visit_count) << path;
      for (const auto& [k, v] : n.metrics) {
        // Wall-clock and pool-warmth metrics legitimately differ between
        // a fresh worker process and a warm in-process sweep; everything
        // analytic (flops, bytes, reps, problem_size) must agree exactly.
        if (k == "setup_ms" || k == "checksum_ms" || k == "pool_hit") {
          EXPECT_TRUE(m->metrics.count(k)) << path << "/" << k;
          continue;
        }
        EXPECT_DOUBLE_EQ(m->metrics.at(k), v) << path << "/" << k;
      }
    });
  }

  // Status tables agree line for line (times differ; statuses cannot).
  EXPECT_EQ(sandboxed.status_report(), inproc.status_report());
}

// --------------------------------------------------- checkpoint robustness

TEST_F(SandboxTest, TruncatedFinalProgressLineIsDroppedOnResume) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_sandbox_torn";
  std::filesystem::remove_all(dir);

  RunParams p = sandbox_params();
  p.isolate = IsolationMode::None;
  p.output_dir = dir.string();
  {
    Executor exec(p);
    exec.run();
    EXPECT_TRUE(exec.all_passed());
  }
  // Simulate a run that died mid-append: chop the final record in half.
  const auto path = dir / "progress.jsonl";
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 30);

  p.resume = true;
  Executor exec(p);
  exec.run();
  EXPECT_TRUE(exec.all_passed());
  std::size_t restored = 0;
  std::size_t rerun = 0;
  for (const auto& r : exec.results()) {
    (r.restored ? restored : rerun) += 1;
  }
  // Exactly the torn record's cell re-ran; intact records restored.
  EXPECT_EQ(restored, 3u);
  EXPECT_EQ(rerun, 1u);

  std::filesystem::remove_all(dir);
}

TEST_F(SandboxTest, RestoredChecksumsAreBitIdentical) {
  // checksum_hex in progress.jsonl must round-trip the full long double,
  // not the double approximation.
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_sandbox_hex";
  std::filesystem::remove_all(dir);

  RunParams p = sandbox_params();
  p.isolate = IsolationMode::None;
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.output_dir = dir.string();
  long double live = 0.0L;
  {
    Executor exec(p);
    exec.run();
    ASSERT_EQ(exec.results().size(), 1u);
    live = exec.results()[0].checksum;
  }
  p.resume = true;
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  ASSERT_TRUE(exec.results()[0].restored);
  EXPECT_EQ(exec.results()[0].checksum, live);

  std::filesystem::remove_all(dir);
}

}  // namespace
