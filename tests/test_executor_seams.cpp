// Contract tests for the executor's seams, each called directly rather
// than through a sweep: the checkpoint (progress.jsonl and crashes.jsonl),
// the worker job and result wire records with the failure
// classification, and the text reports. The store landing is checked
// through a small in-process sweep, since its cost is the barriers a
// whole run issues.
#include <gtest/gtest.h>
#include <signal.h>

#include <cstring>
#include <filesystem>

#include "instrument/profile.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/wire.hpp"
#include "store/store.hpp"
#include "suite/cell_record.hpp"
#include "suite/checkpoint.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"
#include "suite/reports.hpp"

namespace {

using namespace rperf;
using namespace rperf::suite;

RunResult cell(const std::string& kernel, VariantID v, RunStatus status) {
  RunResult r;
  r.kernel = kernel;
  r.variant = v;
  r.status = status;
  return r;
}

/// Each checkpoint test gets a scratch directory, removed when it ends.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rperf_seams_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// ------------------------------------------------------------ checkpoint

TEST_F(CheckpointTest, ProgressRoundTripKeepsExactChecksumBits) {
  RunResult r = cell("Basic_DAXPY", VariantID::RAJA_Seq, RunStatus::Passed);
  r.tuning_name = "default";
  // A long double no double can hold: the readable "checksum" field would
  // round it, so only checksum_hex keeps the exact bits.
  r.checksum = 1.0L / 3.0L + 1e-19L;
  r.time_per_rep_sec = 2.5e-6;
  r.problem_size = 1000;
  r.reps = 7;
  r.attempts = 2;
  r.setup_ms = 0.25;
  r.checksum_ms = 0.125;
  r.pool_hits = 9;
  r.hwc.source = "simulated";
  r.hwc.values["PAPI_TOT_CYC"] = 1.0;
  ASSERT_NE(static_cast<long double>(static_cast<double>(r.checksum)),
            r.checksum);

  Checkpoint cp(dir_.string());
  cp.start(/*resume=*/false, std::chrono::steady_clock::now());
  cp.append_progress(r, "no PMU");
  const auto loaded = cp.load_progress();
  ASSERT_EQ(loaded.size(), 1u);
  const auto it =
      loaded.find(cell_key("Basic_DAXPY", VariantID::RAJA_Seq, "default"));
  ASSERT_NE(it, loaded.end());
  const RunResult& back = it->second;
  // The x87 long double's 10 significant bytes, compared bit for bit.
  EXPECT_EQ(std::memcmp(&back.checksum, &r.checksum, 10), 0);
  EXPECT_EQ(back.status, RunStatus::Passed);
  EXPECT_EQ(back.time_per_rep_sec, r.time_per_rep_sec);
  EXPECT_EQ(back.problem_size, r.problem_size);
  EXPECT_EQ(back.reps, r.reps);
  EXPECT_EQ(back.setup_ms, r.setup_ms);
  EXPECT_EQ(back.checksum_ms, r.checksum_ms);
  EXPECT_EQ(back.pool_hits, r.pool_hits);
  // Restored cells keep the counter source, never the values.
  EXPECT_EQ(back.hwc.source, "simulated");
  EXPECT_TRUE(back.hwc.values.empty());
}

TEST_F(CheckpointTest, TornFinalLinesAreDroppedWithTheirWarnings) {
  Checkpoint cp(dir_.string());
  cp.start(/*resume=*/false, std::chrono::steady_clock::now());
  cp.append_progress(cell("Basic_DAXPY", VariantID::Base_Seq,
                          RunStatus::Passed), "");
  cp.append_progress(cell("Stream_TRIAD", VariantID::Base_Seq,
                          RunStatus::Passed), "");
  sandbox::JobFailure f;
  f.signal = SIGSEGV;
  const RunResult crashed =
      cell("Stream_TRIAD", VariantID::Base_Seq, RunStatus::Crashed);
  cp.append_crash(crashed, f, 1, false);
  cp.append_crash(crashed, f, 2, false);
  // Tear each file's final record mid-line, as a crash mid-append would.
  for (const std::string& path : {cp.progress_path(), cp.crashes_path()}) {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);
  }

  ::testing::internal::CaptureStderr();
  const auto progress = cp.load_progress();
  const auto crashes = cp.load_crashes(
      "crash record; quarantine counting stays conservative");
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(err, "warning: " + cp.progress_path() +
                     ":2: dropping truncated checkpoint record; the cell "
                     "will be re-run\n"
                     "warning: " + cp.crashes_path() +
                     ":2: dropping truncated crash record; quarantine "
                     "counting stays conservative\n");
  ASSERT_EQ(progress.size(), 1u);
  EXPECT_EQ(progress.begin()->second.kernel, "Basic_DAXPY");
  EXPECT_EQ(crashes.at(cell_key("Stream_TRIAD", VariantID::Base_Seq,
                                "default")).crashes,
            1);
}

TEST_F(CheckpointTest, CrashHistoryIsKeptPerCell) {
  Checkpoint cp(dir_.string());
  cp.start(/*resume=*/false, std::chrono::steady_clock::now());
  sandbox::JobFailure segv;
  segv.signal = SIGSEGV;
  sandbox::JobFailure oom;
  oom.exited = true;
  oom.exit_code = sandbox::kOomExitCode;
  RunResult a = cell("Basic_DAXPY", VariantID::Base_Seq, RunStatus::Crashed);
  const RunResult b = cell("Basic_DAXPY", VariantID::Lambda_Seq,
                           RunStatus::Crashed);
  cp.append_crash(a, segv, 1, false);
  cp.append_crash(b, segv, 1, false);
  a.status = RunStatus::OutOfMemory;
  cp.append_crash(a, oom, 2, true);
  cp.append_quarantine_skip(a, 2);  // a skip is not a crash
  cp.append_quarantine_skip(cell("Stream_ADD", VariantID::Base_Seq,
                                 RunStatus::Skipped), 3);

  const auto crashes = cp.load_crashes("crash record");
  ASSERT_EQ(crashes.size(), 3u);
  const CellCrashes& ca = crashes.at("Basic_DAXPY [Base_Seq/default]");
  EXPECT_EQ(ca.crashes, 2);
  EXPECT_EQ(ca.last_status, "OutOfMemory");
  EXPECT_EQ(ca.last_signal, "exit 86");
  EXPECT_TRUE(ca.quarantined);
  const CellCrashes& cb = crashes.at("Basic_DAXPY [Lambda_Seq/default]");
  EXPECT_EQ(cb.crashes, 1);
  EXPECT_EQ(cb.last_signal, "SIGSEGV");
  EXPECT_FALSE(cb.quarantined);
  const CellCrashes& skipped = crashes.at("Stream_ADD [Base_Seq/default]");
  EXPECT_EQ(skipped.crashes, 0);
  EXPECT_TRUE(skipped.quarantined);

  // A fresh (non-resumed) run starts a new crash history.
  Checkpoint next(dir_.string());
  next.start(/*resume=*/false, std::chrono::steady_clock::now());
  EXPECT_TRUE(next.load_crashes("crash record").empty());
}

TEST_F(CheckpointTest, EmptyDirIsInert) {
  Checkpoint cp("");
  cp.start(/*resume=*/false, std::chrono::steady_clock::now());
  cp.append_progress(cell("Basic_DAXPY", VariantID::Base_Seq,
                          RunStatus::Passed), "");
  EXPECT_EQ(cp.progress_path(), "");
  EXPECT_EQ(cp.crashes_path(), "");
  EXPECT_TRUE(cp.load_progress().empty());
  EXPECT_TRUE(cp.load_crashes("crash record").empty());
}

// --------------------------------------------------------- store landing

using RunStoreTest = CheckpointTest;

// A --store run lands every cell in one complete stored run, with no more
// fsync barriers than group commit and the fixed barriers of one run on a
// fresh store account for (store.cpp). Group commit fsyncs the journal
// once per store::kSyncEveryCommits commit markers, with one marker for
// begin_run and one per cell. Opening fsyncs the new journal's
// header and the directory (2); finish_run fsyncs the journal before and
// after the final marker (2); the seal fsyncs the directory after renaming
// the journal into a segment, then the manifest and the directory it is
// renamed into, then the next journal's header (4).
TEST_F(RunStoreTest, RunLandsEveryCellWithinTheBarrierBound) {
  RunParams p;
  p.group_filter = {GroupID::Stream};
  p.size_factor = 0.01;
  p.reps_factor = 0.1;
  p.store_dir = dir_.string();
  Executor exec(p);
  exec.run();
  const std::size_t cells = exec.results().size();
  ASSERT_GE(cells, 24u);
  EXPECT_EQ(exec.store_error(), "");
  EXPECT_EQ(exec.store_cells(), cells);

  const store::StoreReader reader(p.store_dir);
  const store::StoredRun* run = reader.find("");
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->cells.size(), cells);

  constexpr std::size_t kFixedBarriers = 2 + 2 + 4;
  const std::size_t commits = 1 + cells;
  EXPECT_LE(exec.store_barriers(),
            (commits + store::kSyncEveryCommits - 1) /
                    store::kSyncEveryCommits +
                kFixedBarriers);
}

// ------------------------------------------------ job and result records

TEST(CellRecord, JobRoundTrips) {
  RunResult job = cell("Basic_MAT_MAT_SHARED", VariantID::RAJA_OpenMP,
                       RunStatus::Passed);
  job.tuning = 2;
  job.tuning_name = "tile_32";
  RunResult back;
  int threads = 0;
  std::string state;
  decode_job(encode_job(job, 4, "state-bytes"), back, threads, state);
  EXPECT_EQ(back.kernel, job.kernel);
  EXPECT_EQ(back.variant, job.variant);
  EXPECT_EQ(back.tuning, job.tuning);
  EXPECT_EQ(back.tuning_name, job.tuning_name);
  EXPECT_EQ(threads, 4);
  EXPECT_EQ(state, "state-bytes");
}

/// A passed result with a profile and a counter sample, and its blob.
struct SampleRecord {
  RunResult r;
  cali::Profile profile;
  std::string blob;
  SampleRecord() {
    r = cell("Basic_DAXPY", VariantID::Base_Seq, RunStatus::Passed);
    r.time_per_rep_sec = 3.25e-7;
    r.checksum = 2.0L / 3.0L;
    r.problem_size = 4096;
    r.reps = 11;
    r.setup_ms = 1.5;
    r.checksum_ms = 0.5;
    r.pool_hits = 3;
    r.hwc.source = "measured";
    r.hwc.values = {{"PAPI_TOT_CYC", 1e9}, {"PAPI_TOT_INS", 2e9}};
    r.hwc.time_enabled_ns = 500;
    r.hwc.time_running_ns = 400;
    r.hwc.overhead_sec = 1e-4;
    profile.metadata["variant"] = "Base_Seq";
    cali::ProfileNode root;
    root.name = "Basic_DAXPY";
    root.time_sec = 0.125;
    root.visit_count = 3;
    root.metrics["flops"] = 2.0e9;
    profile.roots.push_back(root);
    blob = encode_cell_record(r, "post-job-state", &profile);
  }
};

TEST(CellRecord, ResultRoundTripsWithProfileAndHwcSample) {
  const SampleRecord s;
  RunResult back;
  std::string state;
  std::optional<cali::Profile> profile;
  decode_cell_record(s.blob, back, state, profile);
  EXPECT_EQ(back.status, RunStatus::Passed);
  EXPECT_EQ(back.time_per_rep_sec, s.r.time_per_rep_sec);
  EXPECT_EQ(std::memcmp(&back.checksum, &s.r.checksum, 10), 0);
  EXPECT_EQ(back.problem_size, s.r.problem_size);
  EXPECT_EQ(back.reps, s.r.reps);
  EXPECT_EQ(back.setup_ms, s.r.setup_ms);
  EXPECT_EQ(back.checksum_ms, s.r.checksum_ms);
  EXPECT_EQ(back.pool_hits, s.r.pool_hits);
  EXPECT_EQ(state, "post-job-state");
  EXPECT_EQ(back.hwc.source, "measured");
  EXPECT_EQ(back.hwc.values, s.r.hwc.values);
  EXPECT_EQ(back.hwc.time_enabled_ns, 500u);
  EXPECT_EQ(back.hwc.time_running_ns, 400u);
  EXPECT_EQ(back.hwc.overhead_sec, 1e-4);
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(cali::profile_to_json(*profile), cali::profile_to_json(s.profile));
}

TEST(CellRecord, TruncatedResultRaisesWireError) {
  const SampleRecord s;
  for (std::size_t n = 0; n < s.blob.size(); ++n) {
    RunResult back;
    std::string state;
    std::optional<cali::Profile> profile;
    EXPECT_THROW(decode_cell_record(s.blob.substr(0, n), back, state, profile),
                 wire::Error)
        << "prefix of " << n << " of " << s.blob.size() << " bytes";
  }
}

TEST(CellRecord, FailuresClassifyToRunStatuses) {
  auto classify = [](sandbox::JobFailure f, std::size_t mem_mb) {
    RunResult r;
    classify_failure(f, mem_mb, r);
    return r.status;
  };
  sandbox::JobFailure deadline;
  deadline.reason = sandbox::FailReason::DeadlineKilled;
  deadline.signal = SIGKILL;
  EXPECT_EQ(classify(deadline, 0), RunStatus::Killed);

  sandbox::JobFailure oom_exit;
  oom_exit.exited = true;
  oom_exit.exit_code = sandbox::kOomExitCode;
  EXPECT_EQ(sandbox::kOomExitCode, 86);
  EXPECT_EQ(classify(oom_exit, 0), RunStatus::OutOfMemory);

  sandbox::JobFailure other_exit = oom_exit;
  other_exit.exit_code = 1;
  EXPECT_EQ(classify(other_exit, 0), RunStatus::Crashed);

  sandbox::JobFailure sigkill;
  sigkill.signal = SIGKILL;
  EXPECT_EQ(classify(sigkill, 64), RunStatus::OutOfMemory);
  EXPECT_EQ(classify(sigkill, 0), RunStatus::Crashed);

  sandbox::JobFailure sigxcpu;
  sigxcpu.signal = SIGXCPU;
  EXPECT_EQ(classify(sigxcpu, 0), RunStatus::Killed);

  sandbox::JobFailure corrupt;
  corrupt.reason = sandbox::FailReason::ProtocolCorrupt;
  EXPECT_EQ(classify(corrupt, 64), RunStatus::Crashed);
  EXPECT_EQ(implied_fault_kind(corrupt, RunStatus::Crashed),
            faults::FaultKind::ProtocolCorrupt);

  sandbox::JobFailure segv;
  segv.signal = SIGSEGV;
  EXPECT_EQ(classify(segv, 0), RunStatus::Crashed);
  EXPECT_EQ(implied_fault_kind(segv, RunStatus::Crashed),
            faults::FaultKind::Segv);
}

// --------------------------------------------------------------- reports

/// `s` right-aligned in `w` columns, or left-aligned with `left`.
std::string col(const std::string& s, std::size_t w, bool left = false) {
  const std::string pad(w - s.size(), ' ');
  return left ? s + pad : pad + s;
}

class ReportsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunParams p;
    for (const char* name : {"Basic_DAXPY", "Stream_ADD", "Stream_TRIAD"}) {
      kernels_.push_back(make_kernel(name, p));
    }
    const auto add = [this](const char* k, VariantID v, RunStatus s) {
      results_.push_back(cell(k, v, s));
      return &results_.back();
    };
    results_.reserve(16);
    RunResult* passed =
        add("Basic_DAXPY", VariantID::Base_Seq, RunStatus::Passed);
    passed->time_per_rep_sec = 1.5e-6;
    passed->checksum = 12.5L;
    passed->restored = true;
    RunResult* failed =
        add("Basic_DAXPY", VariantID::Lambda_Seq, RunStatus::Failed);
    failed->attempts = 2;
    failed->error = "boom";
    add("Basic_DAXPY", VariantID::RAJA_Seq, RunStatus::ChecksumInvalid);
    add("Stream_ADD", VariantID::Base_Seq, RunStatus::TimedOut);
    add("Stream_ADD", VariantID::Lambda_Seq, RunStatus::Skipped);
    add("Stream_ADD", VariantID::RAJA_Seq, RunStatus::Crashed);
    add("Stream_TRIAD", VariantID::Base_Seq, RunStatus::OutOfMemory);
    add("Stream_TRIAD", VariantID::Lambda_Seq, RunStatus::Killed);
    // Stream_TRIAD/RAJA_Seq was never swept.
  }
  Kernels kernels_;
  std::vector<RunResult> results_;
};

TEST_F(ReportsTest, TablesShowValuesMarkersAndUnsweptCells) {
  auto table = [](std::size_t w, const std::string& passed) {
    return col("Kernel", 32, true) + col("Base_Seq", w) +
           col("Lambda_Seq", w) + col("RAJA_Seq", w) + "\n" +
           col("Basic_DAXPY", 32, true) + col(passed, w) + col("FAILED", w) +
           col("BADSUM", w) + "\n" +
           col("Stream_ADD", 32, true) + col("TIMEOUT", w) +
           col("SKIPPED", w) + col("CRASHED", w) + "\n" +
           col("Stream_TRIAD", 32, true) + col("OOM", w) + col("KILLED", w) +
           col("--", w) + "\n";
  };
  EXPECT_EQ(timing_report(results_, kernels_), table(16, "1.500e-06"));
  EXPECT_EQ(checksum_report(results_, kernels_),
            table(22, "1.250000000000e+01"));
}

TEST_F(ReportsTest, StatusReportCountsEveryStatus) {
  EXPECT_EQ(status_report(results_),
            "cells: 1 passed, 1 failed, 1 checksum-invalid, 1 timed-out, "
            "1 crashed, 1 out-of-memory, 1 killed, 1 skipped "
            "(1 restored from checkpoint)\n"
            "  Failed Basic_DAXPY [Lambda_Seq/default] after 2 attempts: "
            "boom\n"
            "  ChecksumInvalid Basic_DAXPY [RAJA_Seq/default]\n"
            "  TimedOut Stream_ADD [Base_Seq/default]\n"
            "  Skipped Stream_ADD [Lambda_Seq/default]\n"
            "  Crashed Stream_ADD [RAJA_Seq/default]\n"
            "  OutOfMemory Stream_TRIAD [Base_Seq/default]\n"
            "  Killed Stream_TRIAD [Lambda_Seq/default]\n");
}

TEST_F(ReportsTest, ChecksumAgreementReadsOnlyPassedResults) {
  std::string details;
  // One passed variant per kernel: nothing to disagree with.
  EXPECT_TRUE(checksums_consistent(results_, kernels_, 1e-10, &details));
  EXPECT_EQ(details, "");
  // A second passed DAXPY variant with another checksum disagrees; the
  // BADSUM cell beside it takes no part.
  results_[1].status = RunStatus::Passed;
  results_[1].checksum = 13.0L;
  EXPECT_FALSE(checksums_consistent(results_, kernels_, 1e-10, &details));
  EXPECT_EQ(details, "Basic_DAXPY [default]: Base_Seq=12.5 vs Lambda_Seq=13\n");
  results_[1].checksum = 12.5L;
  EXPECT_TRUE(checksums_consistent(results_, kernels_, 1e-10, &details));
}

}  // namespace
