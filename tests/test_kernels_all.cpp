// Whole-suite parameterized tests: every Table I kernel is exercised for
// metadata sanity, cross-variant checksum agreement, data that does not
// outlive its cell, determinism, and analytic-metric scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "instrument/channel.hpp"
#include "mem/pool.hpp"
#include "suite/data_utils.hpp"
#include "suite/registry.hpp"

namespace {

using namespace rperf::suite;

RunParams tiny_params() {
  RunParams p;
  p.size_factor = 0.004;  // a few thousand elements
  p.reps_factor = 0.0;    // clamped up to min_reps
  p.min_reps = 2;
  return p;
}

class KernelSuiteTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelSuiteTest,
    ::testing::ValuesIn(all_kernel_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;  // kernel names are valid test identifiers
    });

TEST_P(KernelSuiteTest, DeclaresSaneMetadata) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  EXPECT_EQ(kernel->name(), GetParam());
  EXPECT_FALSE(kernel->variants().empty());
  EXPECT_GT(kernel->default_prob_size(), 0);
  EXPECT_GT(kernel->actual_prob_size(), 0);
  EXPECT_GE(kernel->run_reps(), 2);
  EXPECT_FALSE(kernel->features().empty());
}

TEST_P(KernelSuiteTest, DeclaresUsableTraits) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  const auto& t = kernel->traits();
  // Every kernel moves data or computes — never neither.
  EXPECT_GT(t.bytes_total() + t.flops, 0.0);
  EXPECT_GE(t.bytes_read, 0.0);
  EXPECT_GE(t.bytes_written, 0.0);
  EXPECT_GE(t.flops, 0.0);
  EXPECT_GT(t.working_set_bytes, 0.0);
  EXPECT_GT(t.avg_parallelism, 0.0);
  EXPECT_GT(t.fp_eff_cpu, 0.0);
  EXPECT_GT(t.fp_eff_gpu, 0.0);
  EXPECT_GE(t.launches_per_rep, 1);
  EXPECT_GE(t.vector_fraction, 0.0);
  EXPECT_LE(t.vector_fraction, 1.0);
}

TEST_P(KernelSuiteTest, AllVariantsAgreeOnChecksum) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  // Every cell hands all of its pooled data back in tearDown, so a sweep
  // holds one cell's inputs at a time.
  const std::size_t in_use = rperf::mem::pool().stats().bytes_in_use;
  long double reference = 0.0L;
  bool have_reference = false;
  for (VariantID v : kernel->variants()) {
    kernel->execute(v, channel);
    EXPECT_EQ(rperf::mem::pool().stats().bytes_in_use, in_use)
        << GetParam() << " " << to_string(v) << " left pooled data live";
    const long double cs = kernel->checksum(v);
    if (!have_reference) {
      reference = cs;
      have_reference = true;
      continue;
    }
    EXPECT_TRUE(checksums_match(reference, cs, 1e-7))
        << GetParam() << " " << to_string(v) << ": "
        << static_cast<double>(reference) << " vs "
        << static_cast<double>(cs);
  }
}

TEST_P(KernelSuiteTest, ExecutionIsDeterministic) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  kernel->execute(VariantID::Base_Seq, channel);
  const long double first = kernel->checksum(VariantID::Base_Seq);
  kernel->execute(VariantID::Base_Seq, channel);
  EXPECT_EQ(first, kernel->checksum(VariantID::Base_Seq)) << GetParam();
}

TEST_P(KernelSuiteTest, ExecuteAnnotatesTheKernelRegion) {
  const auto kernel = make_kernel(GetParam(), tiny_params());
  rperf::cali::Channel channel;
  kernel->execute(kernel->variants().front(), channel);
  const auto* node = channel.root().find(kernel->name());
  ASSERT_NE(node, nullptr) << GetParam();
  EXPECT_GE(node->visit_count, 1u);
  EXPECT_TRUE(node->metrics.count("bytes_read"));
  EXPECT_TRUE(node->metrics.count("flops"));
  EXPECT_TRUE(node->metrics.count("problem_size"));
}

TEST_P(KernelSuiteTest, AnalyticMetricsGrowWithProblemSize) {
  RunParams small = tiny_params();
  RunParams big = tiny_params();
  big.size_factor = small.size_factor * 8.0;
  const auto k_small = make_kernel(GetParam(), small);
  const auto k_big = make_kernel(GetParam(), big);
  // Combined work: quadrature kernels (PI, TRAP_INT) move O(1) bytes but
  // their flops scale; everything else scales in bytes. Surface-complexity
  // Comm kernels grow slower (n^{2/3} of an 8x volume is 4x), sorts and
  // matmuls faster — 2x is a safe lower bound for an 8x size increase.
  const double w_small =
      k_small->traits().bytes_total() + k_small->traits().flops;
  const double w_big = k_big->traits().bytes_total() + k_big->traits().flops;
  EXPECT_GT(w_big, 2.0 * w_small) << GetParam();
}

}  // namespace
