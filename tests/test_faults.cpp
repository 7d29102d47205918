// Tests for the fault injector and the executor's fault-tolerant sweep:
// every RunStatus path, retry-with-backoff, keep-going isolation, and
// checkpoint/resume.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "faults/injector.hpp"
#include "instrument/json.hpp"
#include "instrument/profile.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"

namespace {

using namespace rperf;
using namespace rperf::suite;

RunParams small_params() {
  RunParams p;
  p.size_factor = 0.01;
  p.reps_factor = 0.1;
  p.min_reps = 2;
  p.retry_backoff_ms = 0;  // keep test retries instant
  return p;
}

const RunResult* find_cell(const Executor& exec, const std::string& kernel,
                           VariantID v) {
  for (const auto& r : exec.results()) {
    if (r.kernel == kernel && r.variant == v) return &r;
  }
  return nullptr;
}

class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::injector().reset(); }
  void TearDown() override { faults::injector().reset(); }
};

// ----------------------------------------------------------------- grammar

TEST_F(FaultsTest, ParsesTheFullGrammar) {
  const auto specs = faults::Injector::parse(
      "faults=alloc@Stream_TRIAD:1,throw@Basic_DAXPY,"
      "slow@Lcals_HYDRO_2D:50ms,corrupt@Polybench_ADI,alloc@*:p25");
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].kind, faults::FaultKind::Alloc);
  EXPECT_EQ(specs[0].kernel, "Stream_TRIAD");
  EXPECT_EQ(specs[0].budget, 1);
  EXPECT_EQ(specs[1].kind, faults::FaultKind::Throw);
  EXPECT_EQ(specs[1].budget, -1);  // unlimited
  EXPECT_EQ(specs[2].kind, faults::FaultKind::Slow);
  EXPECT_EQ(specs[2].delay_ms, 50);
  EXPECT_EQ(specs[3].kind, faults::FaultKind::Corrupt);
  EXPECT_EQ(specs[4].kernel, "*");
  EXPECT_DOUBLE_EQ(specs[4].probability, 0.25);
  EXPECT_TRUE(faults::Injector::parse("").empty());
  EXPECT_TRUE(faults::Injector::parse("faults=").empty());
}

TEST_F(FaultsTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"oops@Basic_DAXPY", "throw", "alloc@", "slow@K",
        "alloc@K:12ms", "alloc@K:p150", "throw@K:x", "alloc@K:-1"}) {
    EXPECT_THROW((void)faults::Injector::parse(bad), std::invalid_argument)
        << bad;
  }
}

TEST_F(FaultsTest, RunParamsValidateFaultSpecEagerly) {
  const char* argv[] = {"prog", "--faults", "oops@Basic_DAXPY"};
  EXPECT_THROW(RunParams::parse(3, argv), std::invalid_argument);
  const char* good[] = {"prog",      "--faults",          "throw@Basic_DAXPY",
                        "--retries", "2",                 "--fault-seed",
                        "99",        "--max-kernel-seconds", "1.5"};
  const RunParams p = RunParams::parse(9, good);
  EXPECT_EQ(p.fault_spec, "throw@Basic_DAXPY");
  EXPECT_EQ(p.retries, 2);
  EXPECT_EQ(p.fault_seed, 99u);
  EXPECT_DOUBLE_EQ(p.max_kernel_seconds, 1.5);
  EXPECT_TRUE(p.keep_going);
  const char* stop[] = {"prog", "--no-keep-going", "--resume"};
  const RunParams q = RunParams::parse(3, stop);
  EXPECT_FALSE(q.keep_going);
  EXPECT_TRUE(q.resume);
}

// ---------------------------------------------------------------- injector

TEST_F(FaultsTest, ThrowFaultFiresOnlyForMatchingKernelAndBudget) {
  auto& inj = faults::injector();
  inj.configure("throw@Stream_TRIAD:1");
  EXPECT_NO_THROW(inj.on_lifecycle("Basic_DAXPY"));
  EXPECT_THROW(inj.on_lifecycle("Stream_TRIAD"), faults::InjectedFault);
  // Budget of 1 is now exhausted.
  EXPECT_NO_THROW(inj.on_lifecycle("Stream_TRIAD"));
}

TEST_F(FaultsTest, StaleResultStateCannotReArmASpentBudget) {
  auto& inj = faults::injector();
  inj.configure("segv@K:1,throw@L:5,slow@M:10ms", 42u);
  // A worker's post-job state: its job fired throw@L once, and it was
  // dispatched while segv@K still had its one unit.
  EXPECT_THROW(inj.on_lifecycle("L"), faults::InjectedFault);
  const std::string worker_state = inj.serialize_state();

  // Meanwhile the parent saw another worker die of segv@K and spent it.
  inj.configure("segv@K:1,throw@L:5,slow@M:10ms", 42u);
  inj.note_external_fire(faults::FaultKind::Segv, "K");
  inj.fold_result_state(worker_state);
  EXPECT_EQ(inj.specs()[0].budget, 0);   // stays spent
  EXPECT_EQ(inj.specs()[1].budget, 4);   // the worker's own fire folds in
  EXPECT_EQ(inj.specs()[2].budget, -1);  // unlimited stays unlimited
}

TEST_F(FaultsTest, AllocFaultRequiresACellScope) {
  auto& inj = faults::injector();
  inj.configure("alloc@*");
  EXPECT_NO_THROW(inj.on_alloc(1024));  // no cell open -> inert
  {
    faults::ScopedCell cell("Stream_TRIAD");
    EXPECT_THROW(inj.on_alloc(1024), std::bad_alloc);
  }
  EXPECT_NO_THROW(inj.on_alloc(1024));
}

TEST_F(FaultsTest, ProbabilisticFaultsAreDeterministicPerSeed) {
  auto pattern = [](std::uint32_t seed) {
    auto& inj = faults::injector();
    inj.configure("alloc@*:p50", seed);
    faults::ScopedCell cell("Stream_TRIAD");
    std::string out;
    for (int i = 0; i < 32; ++i) {
      try {
        inj.on_alloc(8);
        out += '.';
      } catch (const std::bad_alloc&) {
        out += 'X';
      }
    }
    return out;
  };
  const std::string a = pattern(123u);
  EXPECT_EQ(a, pattern(123u));
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
  EXPECT_NE(a, pattern(456u));
}

TEST_F(FaultsTest, SlowAndCorruptHooks) {
  auto& inj = faults::injector();
  inj.configure("slow@Lcals_HYDRO_2D:50ms,corrupt@Polybench_ADI:1");
  EXPECT_EQ(inj.slow_delay_ms("Stream_TRIAD"), 0);
  EXPECT_EQ(inj.slow_delay_ms("Lcals_HYDRO_2D"), 50);
  const long double cs = 42.0L;
  EXPECT_EQ(inj.corrupt_checksum("Stream_TRIAD", cs), cs);
  EXPECT_TRUE(std::isnan(
      static_cast<double>(inj.corrupt_checksum("Polybench_ADI", cs))));
  // Budget 1: second corruption does not fire.
  EXPECT_EQ(inj.corrupt_checksum("Polybench_ADI", cs), cs);
}

// ----------------------------------------------- kernel-level guarded scope

TEST_F(FaultsTest, FailedExecuteDoesNotPoisonTheNextOne) {
  RunParams p = small_params();
  auto k = make_kernel("Stream_TRIAD", p);
  cali::Channel ch;
  faults::injector().configure("throw@Stream_TRIAD:1");
  EXPECT_THROW(k->execute(VariantID::Base_Seq, ch), faults::InjectedFault);
  EXPECT_FALSE(k->was_run(VariantID::Base_Seq));
  EXPECT_NO_THROW(k->execute(VariantID::Base_Seq, ch));
  EXPECT_TRUE(k->was_run(VariantID::Base_Seq));
  EXPECT_NE(k->checksum(VariantID::Base_Seq), 0.0L);
}

TEST_F(FaultsTest, WatchdogThrowsKernelTimeout) {
  RunParams p = small_params();
  p.max_kernel_seconds = 0.005;
  auto k = make_kernel("Stream_TRIAD", p);
  cali::Channel ch;
  faults::injector().configure("slow@Stream_TRIAD:50ms");
  EXPECT_THROW(k->execute(VariantID::Base_Seq, ch), KernelTimeout);
}

// ------------------------------------------------------- executor statuses

TEST_F(FaultsTest, ThrowFaultIsIsolatedAndReported) {
  RunParams p = small_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.fault_spec = "throw@Basic_DAXPY";
  Executor exec(p);
  exec.run();

  const RunResult* daxpy =
      find_cell(exec, "Basic_DAXPY", VariantID::Base_Seq);
  ASSERT_NE(daxpy, nullptr);
  EXPECT_EQ(daxpy->status, RunStatus::Failed);
  EXPECT_NE(daxpy->error.find("injected"), std::string::npos);
  const RunResult* triad =
      find_cell(exec, "Stream_TRIAD", VariantID::Base_Seq);
  ASSERT_NE(triad, nullptr);
  EXPECT_EQ(triad->status, RunStatus::Passed);
  EXPECT_FALSE(exec.all_passed());
  EXPECT_EQ(exec.status_counts().at(RunStatus::Failed), 1u);

  // The failed cell never reaches the per-variant profile.
  const auto profiles = exec.profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_NE(profiles[0].find("Stream_TRIAD"), nullptr);
  EXPECT_EQ(profiles[0].find("Basic_DAXPY"), nullptr);
  EXPECT_EQ(profiles[0].metadata.at("cells_failed"), "1");
  EXPECT_EQ(profiles[0].metadata.at("cells_passed"), "1");

  // Reports still cover every kernel; the failed cell shows its status.
  const std::string timing = exec.timing_report();
  EXPECT_NE(timing.find("Basic_DAXPY"), std::string::npos);
  EXPECT_NE(timing.find("FAILED"), std::string::npos);
  EXPECT_NE(exec.status_report().find("Failed Basic_DAXPY"),
            std::string::npos);
}

TEST_F(FaultsTest, AllocFaultBecomesFailed) {
  RunParams p = small_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.fault_spec = "alloc@Stream_TRIAD";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Failed);
  EXPECT_TRUE(exec.profiles().empty());
}

TEST_F(FaultsTest, AllocFaultThroughPoolStillDrivesRetry) {
  // Since rperf::mem landed, kernel vectors allocate through the pooled
  // arena; the alloc fault hook now fires inside mem::Pool::allocate. A
  // budget-1 alloc fault must still poison exactly one attempt and let the
  // retry pass — proving the pool kept the PR-1 failure surface intact.
  RunParams p = small_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 1;
  p.fault_spec = "alloc@Stream_TRIAD:1";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Passed);
  EXPECT_EQ(exec.results()[0].attempts, 2);
  EXPECT_TRUE(exec.all_passed());
}

TEST_F(FaultsTest, CorruptChecksumBecomesChecksumInvalid) {
  RunParams p = small_params();
  p.kernel_filter = {"Stream_TRIAD", "Stream_ADD"};
  p.variant_filter = {VariantID::Base_Seq, VariantID::Lambda_Seq};
  p.fault_spec = "corrupt@Stream_TRIAD";
  Executor exec(p);
  exec.run();
  const RunResult* triad =
      find_cell(exec, "Stream_TRIAD", VariantID::Base_Seq);
  ASSERT_NE(triad, nullptr);
  EXPECT_EQ(triad->status, RunStatus::ChecksumInvalid);
  // Invalid cells are excluded from cross-variant agreement instead of
  // spuriously failing it.
  std::string details;
  EXPECT_TRUE(exec.checksums_consistent(&details)) << details;
  EXPECT_NE(exec.checksum_report().find("BADSUM"), std::string::npos);
}

TEST_F(FaultsTest, BudgetViolationBecomesTimedOutWithoutRetry) {
  RunParams p = small_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.max_kernel_seconds = 0.005;
  p.retries = 3;
  p.fault_spec = "slow@Stream_TRIAD:50ms";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::TimedOut);
  EXPECT_EQ(exec.results()[0].attempts, 1);  // deterministic: no retry
}

TEST_F(FaultsTest, RetryRecoversATransientFault) {
  RunParams p = small_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.retries = 1;
  p.fault_spec = "throw@Stream_TRIAD:1";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Passed);
  EXPECT_EQ(exec.results()[0].attempts, 2);
  EXPECT_TRUE(exec.all_passed());
  ASSERT_EQ(exec.profiles().size(), 1u);
  // Only the passing attempt is committed to the profile.
  EXPECT_EQ(exec.profiles()[0].find("Stream_TRIAD")->visit_count, 1u);
}

TEST_F(FaultsTest, NoKeepGoingStopsTheSweepAndSkipsTheRest) {
  RunParams p = small_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.keep_going = false;
  p.fault_spec = "throw@Basic_DAXPY";
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 2u);
  EXPECT_EQ(exec.results()[0].status, RunStatus::Failed);
  EXPECT_EQ(exec.results()[1].status, RunStatus::Skipped);
  EXPECT_EQ(exec.status_counts().at(RunStatus::Skipped), 1u);
}

// ------------------------------------------------------ checkpoint/resume

TEST_F(FaultsTest, ResumeSkipsPassedCellsAndRerunsFailedOnes) {
  const auto dir = std::filesystem::temp_directory_path() / "rperf_resume";
  std::filesystem::remove_all(dir);

  RunParams p = small_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq, VariantID::Lambda_Seq};
  p.output_dir = dir.string();
  p.fault_spec = "throw@Basic_DAXPY";
  {
    Executor exec(p);
    exec.run();
    exec.write_profiles();
    EXPECT_EQ(exec.status_counts().at(RunStatus::Failed), 2u);
    EXPECT_EQ(exec.status_counts().at(RunStatus::Passed), 2u);
    ASSERT_TRUE(std::filesystem::exists(exec.progress_path()));

    // The checkpoint is line-delimited JSON with one record per cell.
    std::ifstream is(exec.progress_path());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
      const auto v = json::Value::parse(line);
      EXPECT_FALSE(v.at("kernel").as_string().empty());
      (void)run_status_from_string(v.at("status").as_string());
      ++lines;
    }
    EXPECT_EQ(lines, 4u);
  }

  // Second run: fault cleared, --resume. Only the failed cells re-run.
  p.fault_spec.clear();
  p.resume = true;
  Executor exec(p);
  exec.run();
  exec.write_profiles();
  EXPECT_TRUE(exec.all_passed());
  for (const auto& r : exec.results()) {
    if (r.kernel == "Stream_TRIAD") {
      EXPECT_TRUE(r.restored) << to_string(r.variant);
      EXPECT_GE(r.time_per_rep_sec, 0.0);
    } else {
      EXPECT_FALSE(r.restored) << r.kernel;
    }
  }
  // Restored results still feed the reports and consistency check.
  std::string details;
  EXPECT_TRUE(exec.checksums_consistent(&details)) << details;
  EXPECT_EQ(exec.timing_report().find("FAILED"), std::string::npos);

  // Re-written profiles fold the re-run cells into the restored ones, and
  // this run's metadata wins over the faulted run's.
  const auto prof =
      cali::read_profile((dir / "Base_Seq.default.cali.json").string());
  EXPECT_NE(prof.find("Stream_TRIAD"), nullptr);
  EXPECT_NE(prof.find("Basic_DAXPY"), nullptr);
  EXPECT_EQ(prof.metadata.at("cells_passed"), "2");

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- channel merge

TEST_F(FaultsTest, ChannelMergeSumsRegionsAndMetrics) {
  cali::Channel a, b;
  {
    cali::ScopedRegion r(a, "K");
    a.attribute_metric("flops", 1.0);
  }
  {
    cali::ScopedRegion r(b, "K");
    b.attribute_metric("flops", 2.0);
  }
  {
    cali::ScopedRegion r(b, "L");
  }
  b.set_metadata("variant", "Base_Seq");
  a.merge(b);
  ASSERT_NE(a.root().find("K"), nullptr);
  EXPECT_EQ(a.root().find("K")->visit_count, 2u);
  EXPECT_DOUBLE_EQ(a.root().find("K")->metrics.at("flops"), 3.0);
  ASSERT_NE(a.root().find("L"), nullptr);
  EXPECT_EQ(a.metadata().at("variant"), "Base_Seq");
}

// ------------------------------------------------- mid-suite failure e2e

TEST_F(FaultsTest, MidSuiteFailureStillYieldsFullReports) {
  RunParams p = small_params();
  p.kernel_filter = {"Basic_DAXPY", "Stream_ADD", "Stream_TRIAD"};
  p.fault_spec = "throw@Stream_ADD";
  Executor exec(p);
  exec.run();

  // Every variant of Stream_ADD failed; everything else passed.
  const auto counts = exec.status_counts();
  EXPECT_EQ(counts.at(RunStatus::Failed), all_variants().size());
  EXPECT_EQ(counts.at(RunStatus::Passed), 2 * all_variants().size());

  // One profile per variant survives, containing the two passing kernels.
  const auto profiles = exec.profiles();
  EXPECT_EQ(profiles.size(), all_variants().size());
  for (const auto& prof : profiles) {
    EXPECT_NE(prof.find("Basic_DAXPY"), nullptr);
    EXPECT_NE(prof.find("Stream_TRIAD"), nullptr);
    EXPECT_EQ(prof.find("Stream_ADD"), nullptr);
  }
  const std::string timing = exec.timing_report();
  for (const char* name : {"Basic_DAXPY", "Stream_ADD", "Stream_TRIAD"}) {
    EXPECT_NE(timing.find(name), std::string::npos);
  }
  std::string details;
  EXPECT_TRUE(exec.checksums_consistent(&details)) << details;
  EXPECT_FALSE(exec.all_passed());
}

}  // namespace
