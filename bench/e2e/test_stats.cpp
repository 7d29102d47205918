// Unit tests for rperf_bench's statistics helpers (stats.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace rb = rperf::bench;

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(rb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(rb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(rb::median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(rb::median({}), 0.0);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(BenchStats, QuartilesMatchPythonExclusiveMethod) {
  const rb::Quartiles a = rb::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);

  const rb::Quartiles b = rb::quartiles({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(b.q1, 1.0);
  EXPECT_DOUBLE_EQ(b.q2, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 5.0);

  // Two samples: the clamped positions extrapolate past the ends.
  const rb::Quartiles c = rb::quartiles({10.0, 20.0});
  EXPECT_DOUBLE_EQ(c.q1, 7.5);
  EXPECT_DOUBLE_EQ(c.q2, 15.0);
  EXPECT_DOUBLE_EQ(c.q3, 22.5);

  const rb::Quartiles d = rb::quartiles({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_DOUBLE_EQ(d.q1, 2.25);
  EXPECT_DOUBLE_EQ(d.q2, 4.5);
  EXPECT_DOUBLE_EQ(d.q3, 6.75);

  const rb::Quartiles one = rb::quartiles({4.0});
  EXPECT_DOUBLE_EQ(one.q1, 4.0);
  EXPECT_DOUBLE_EQ(one.q3, 4.0);
}

TEST(BenchStats, GeomeanSkipsNonPositive) {
  EXPECT_DOUBLE_EQ(rb::geomean({2.0, 8.0}), 4.0);
  EXPECT_NEAR(rb::geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(rb::geomean({4.0, 0.0, -1.0}), 4.0);
  EXPECT_DOUBLE_EQ(rb::geomean({}), 0.0);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(BenchStats, TailIsHighestPercentileWithTenBeyond) {
  // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
  const rb::Tail t1000 = rb::tail_percentile(ramp(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t1000.value, 990.0);
  EXPECT_EQ(t1000.samples, 1000u);
  EXPECT_EQ(t1000.beyond, 10u);

  // 999 samples: p99 rank is 990 with only 9 beyond, so p95.
  const rb::Tail t999 = rb::tail_percentile(ramp(999));
  EXPECT_DOUBLE_EQ(t999.percentile, 95.0);
  EXPECT_EQ(t999.beyond, 999u - 950u);

  // 10000 samples support p99.9.
  const rb::Tail t10k = rb::tail_percentile(ramp(10000));
  EXPECT_DOUBLE_EQ(t10k.percentile, 99.9);
  EXPECT_EQ(t10k.beyond, 10u);

  // 204 cells (one sweep): p95 (rank 194, 10 beyond).
  const rb::Tail t204 = rb::tail_percentile(ramp(204));
  EXPECT_DOUBLE_EQ(t204.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t204.value, 194.0);
  EXPECT_EQ(t204.beyond, 10u);

  // 40 samples: p75 (rank 30, 10 beyond).
  const rb::Tail t40 = rb::tail_percentile(ramp(40));
  EXPECT_DOUBLE_EQ(t40.percentile, 75.0);
  EXPECT_EQ(t40.beyond, 10u);
}

TEST(BenchStats, TailFallsBackToMedianRankWithTrueCount) {
  const rb::Tail t = rb::tail_percentile({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_EQ(t.samples, 3u);
  EXPECT_EQ(t.beyond, 1u);

  const rb::Tail empty = rb::tail_percentile({});
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
}

TEST(BenchStats, TailHonoursCustomSupport) {
  const rb::Tail t = rb::tail_percentile(ramp(100), 1);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 1u);
}
