// Unit and property tests for the rperf portability layer.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "port/port.hpp"

namespace {

using namespace rperf::port;

// ---------------------------------------------------------------- segments

TEST(RangeSegment, BasicProperties) {
  RangeSegment seg(3, 10);
  EXPECT_EQ(seg.begin(), 3);
  EXPECT_EQ(seg.end(), 10);
  EXPECT_EQ(seg.size(), 7);
}

TEST(RangeSegment, EmptyWhenEndBeforeBegin) {
  RangeSegment seg(10, 3);
  EXPECT_EQ(seg.size(), 0);
  int visits = 0;
  forall<seq_exec>(seg, [&](Index_type) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(ListSegment, IteratesInGivenOrder) {
  ListSegment seg({4, 2, 7, 2});
  std::vector<Index_type> seen;
  forall<seq_exec>(seg, [&](Index_type i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index_type>{4, 2, 7, 2}));
}

TEST(ListSegment, OpenMPForallCoversEveryIndexOnce) {
  std::vector<Index_type> list;
  for (Index_type i = 500; i < 1000; i += 3) list.push_back(i);
  std::vector<int> hits(1000, 0);
  int* h = hits.data();
  forall<omp_parallel_for_exec>(ListSegment(std::move(list)),
                                [=](Index_type i) { h[i] += 1; });
  for (Index_type i = 0; i < 500; ++i) EXPECT_EQ(hits[i], 0);
  for (Index_type i = 500; i < 1000; ++i) {
    EXPECT_EQ(hits[i], (i - 500) % 3 == 0 ? 1 : 0) << i;
  }
}

// ------------------------------------------------------------------ forall

using AllPolicies = ::testing::Types<seq_exec, omp_parallel_for_exec>;

template <typename Policy>
class ForallPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(ForallPolicyTest, AllPolicies);

TYPED_TEST(ForallPolicyTest, VisitsEveryIndexExactlyOnce) {
  const Index_type n = 10007;
  std::vector<int> hits(n, 0);
  int* h = hits.data();
  forall<TypeParam>(RangeSegment(0, n), [=](Index_type i) { h[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

TYPED_TEST(ForallPolicyTest, DaxpyMatchesReference) {
  const Index_type n = 5000;
  std::vector<double> x(n), y(n), ref(n);
  for (Index_type i = 0; i < n; ++i) {
    x[i] = 0.5 * static_cast<double>(i);
    y[i] = 1.0;
    ref[i] = y[i] + 2.0 * x[i];
  }
  double* yp = y.data();
  const double* xp = x.data();
  forall<TypeParam>(RangeSegment(0, n),
                    [=](Index_type i) { yp[i] += 2.0 * xp[i]; });
  EXPECT_EQ(y, ref);
}

TYPED_TEST(ForallPolicyTest, RespectsSubrange) {
  const Index_type n = 100;
  std::vector<int> hits(n, 0);
  int* h = hits.data();
  forall<TypeParam>(RangeSegment(10, 90), [=](Index_type i) { h[i] = 1; });
  for (Index_type i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], (i >= 10 && i < 90) ? 1 : 0) << "index " << i;
  }
}

// ---------------------------------------------------------------- reducers

template <typename Policy>
class ReducerPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(ReducerPolicyTest, AllPolicies);

struct MinMax {
  double min, max;
};

struct MinLoc {
  double val;
  Index_type loc;
};

/// forall_reduce of a min-with-location over `data`; a later block wins
/// only when strictly smaller.
template <typename Policy>
MinLoc min_loc(const std::vector<double>& data) {
  const double* p = data.data();
  return forall_reduce<Policy>(
      RangeSegment(0, static_cast<Index_type>(data.size())),
      MinLoc{std::numeric_limits<double>::max(), -1},
      [](const MinLoc& a, const MinLoc& b) { return b.val < a.val ? b : a; },
      [=](Index_type i, MinLoc& acc) {
        if (p[i] < acc.val) acc = {p[i], i};
      });
}

TYPED_TEST(ReducerPolicyTest, SumOfIntegers) {
  const Index_type n = 100000;
  const long long sum = forall_reduce<TypeParam>(
      RangeSegment(1, n + 1), 0LL, std::plus<>{},
      [](Index_type i, long long& acc) { acc += static_cast<long long>(i); });
  EXPECT_EQ(sum, static_cast<long long>(n) * (n + 1) / 2);
}

TYPED_TEST(ReducerPolicyTest, MinAndMaxFindExtremes) {
  const Index_type n = 9999;
  std::vector<double> data(n);
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(-1000.0, 1000.0);
  for (auto& d : data) d = dist(rng);
  data[n / 3] = -5000.0;
  data[2 * n / 3] = 5000.0;

  const double* p = data.data();
  const MinMax mm = forall_reduce<TypeParam>(
      RangeSegment(0, n),
      MinMax{std::numeric_limits<double>::max(),
             std::numeric_limits<double>::lowest()},
      [](const MinMax& a, const MinMax& b) {
        return MinMax{std::min(a.min, b.min), std::max(a.max, b.max)};
      },
      [=](Index_type i, MinMax& acc) {
        acc.min = std::min(acc.min, p[i]);
        acc.max = std::max(acc.max, p[i]);
      });
  EXPECT_DOUBLE_EQ(mm.min, -5000.0);
  EXPECT_DOUBLE_EQ(mm.max, 5000.0);
}

TYPED_TEST(ReducerPolicyTest, MinLocFindsValueAndIndex) {
  std::vector<double> data(5001, 7.0);
  data[1234] = -3.0;
  const MinLoc m = min_loc<TypeParam>(data);
  EXPECT_DOUBLE_EQ(m.val, -3.0);
  EXPECT_EQ(m.loc, 1234);
}

TYPED_TEST(ReducerPolicyTest, MinLocTieBreaksToSmallestIndex) {
  // 64-element blocks: 100 and 120 share a block, 200 and 3000 do not.
  std::vector<double> data(4096, 1.0);
  data[100] = data[120] = data[200] = data[3000] = -1.0;
  EXPECT_EQ(min_loc<TypeParam>(data).loc, 100);
}

// Sizes below, at and above kReduceBlocks, and sizes whose last block is
// short.
constexpr Index_type kBlockBoundarySizes[] = {1, 63, 64, 65, 10007, 1000003};

/// 1/3, 1/4, 1/5, ...: doubles whose sum depends on how its adds associate.
std::vector<double> reciprocals(Index_type n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (Index_type i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = 1.0 / (3.0 + static_cast<double>(i));
  }
  return v;
}

// The blocks of a reduction depend on n alone, so a double sum gives the
// same bits under both policies at every team size.
TEST(ForallReduce, DoubleSumHasTheSameBitsUnderEveryPolicyAndTeam) {
  const int caller_team = omp_get_max_threads();
  for (Index_type n : kBlockBoundarySizes) {
    const std::vector<double> data = reciprocals(n);
    const double* p = data.data();
    auto sum = [&](auto policy) {
      return forall_reduce<decltype(policy)>(
          RangeSegment(0, n), 0.0, std::plus<>{},
          [=](Index_type i, double& acc) { acc += p[i]; });
    };
    const double ref = sum(seq_exec{});
    for (int team : {1, 2, 3}) {
      omp_set_num_threads(team);
      EXPECT_EQ(sum(seq_exec{}), ref) << "n=" << n << " team=" << team;
      EXPECT_EQ(sum(omp_parallel_for_exec{}), ref)
          << "n=" << n << " team=" << team;
    }
    omp_set_num_threads(caller_team);
  }
}

// ------------------------------------------------------------------- scans

template <typename Policy>
class ScanPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(ScanPolicyTest, AllPolicies);

TYPED_TEST(ScanPolicyTest, ExclusiveMatchesStd) {
  for (Index_type n : {0, 1, 7, 1000, 65536}) {
    std::vector<long long> in(n), out(n), ref(n);
    for (Index_type i = 0; i < n; ++i) in[i] = (i * 7919) % 13 - 6;
    std::exclusive_scan(in.begin(), in.end(), ref.begin(), 0LL);
    exclusive_scan<TypeParam>(in.data(), out.data(), n, 0LL);
    EXPECT_EQ(out, ref) << "n=" << n;
  }
}

TYPED_TEST(ScanPolicyTest, ExclusiveHonorsInit) {
  std::vector<long long> in{1, 2, 3}, out(3);
  exclusive_scan<TypeParam>(in.data(), out.data(), 3, 100LL);
  EXPECT_EQ(out, (std::vector<long long>{100, 101, 103}));
}

TYPED_TEST(ScanPolicyTest, InPlaceMatchesStd) {
  for (Index_type n : {0, 1, 63, 64, 65, 1000, 65536}) {
    std::vector<long long> data(n), ref(n);
    for (Index_type i = 0; i < n; ++i) data[i] = (i * 7919) % 13 - 6;
    std::exclusive_scan(data.begin(), data.end(), ref.begin(), 5LL);
    exclusive_scan<TypeParam>(data.data(), data.data(), n, 5LL);
    EXPECT_EQ(data, ref) << "n=" << n;
  }
}

// The OpenMP scan's blocks depend on n alone, so a double scan gives the
// same bits at every team size.
TEST(ExclusiveScan, OpenMPDoubleScanHasTheSameBitsAtEveryTeam) {
  const int caller_team = omp_get_max_threads();
  for (Index_type n : kBlockBoundarySizes) {
    const std::vector<double> in = reciprocals(n);
    auto scan = [&] {
      std::vector<double> out(in.size());
      exclusive_scan<omp_parallel_for_exec>(in.data(), out.data(), n, 0.0);
      return out;
    };
    const std::vector<double> ref = scan();
    for (int team : {1, 2, 3}) {
      omp_set_num_threads(team);
      EXPECT_TRUE(scan() == ref) << "n=" << n << " team=" << team;
    }
    omp_set_num_threads(caller_team);
  }
}

// ------------------------------------------------------------------- sorts

template <typename Policy>
class SortPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(SortPolicyTest, AllPolicies);

TYPED_TEST(SortPolicyTest, SortsRandomData) {
  for (Index_type n : {0, 1, 2, 1023, 100000}) {
    std::vector<double> data(n);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(-1e6, 1e6);
    for (auto& d : data) d = dist(rng);
    std::vector<double> ref = data;
    std::sort(ref.begin(), ref.end());
    sort<TypeParam>(data.data(), n);
    EXPECT_EQ(data, ref) << "n=" << n;
  }
}

TYPED_TEST(SortPolicyTest, SortPairsKeepsKeyValueAssociation) {
  const Index_type n = 30000;
  std::vector<int> keys(n);
  std::vector<double> values(n);
  std::mt19937 rng(13);
  for (Index_type i = 0; i < n; ++i) {
    keys[i] = static_cast<int>(rng() % 5000);
    values[i] = static_cast<double>(keys[i]) * 2.5;  // derived from key
  }
  sort_pairs<TypeParam>(keys.data(), values.data(), n);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (Index_type i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(values[i], static_cast<double>(keys[i]) * 2.5);
  }
}

TYPED_TEST(SortPolicyTest, SortPairsIsStable) {
  // Values record original position; equal keys must keep input order.
  const Index_type n = 10000;
  std::vector<int> keys(n);
  std::vector<double> values(n);
  std::mt19937 rng(17);
  for (Index_type i = 0; i < n; ++i) {
    keys[i] = static_cast<int>(rng() % 5);  // many duplicates
    values[i] = static_cast<double>(i);
  }
  sort_pairs<TypeParam>(keys.data(), values.data(), n);
  for (Index_type i = 1; i < n; ++i) {
    if (keys[i] == keys[i - 1]) {
      EXPECT_LT(values[i - 1], values[i]) << "stability broken at " << i;
    }
  }
}

// ----------------------------------------------------------------- atomics

TEST(Atomic, ParallelAtomicAddSumsExactlyForIntegers) {
  const Index_type n = 200000;
  long long total = 0;
  long long* t = &total;
  forall<omp_parallel_for_exec>(RangeSegment(0, n),
                                [=](Index_type) { atomicAdd(t, 1LL); });
  EXPECT_EQ(total, n);
}

TEST(Atomic, ParallelAtomicAddDoubleIsCorrectToRounding) {
  const Index_type n = 100000;
  double total = 0.0;
  double* t = &total;
  forall<omp_parallel_for_exec>(RangeSegment(0, n),
                                [=](Index_type) { atomicAdd(t, 0.5); });
  EXPECT_NEAR(total, 0.5 * static_cast<double>(n), 1e-6);
}

// ------------------------------------------------------------------- views

TEST(Layout, RowMajorStrides) {
  Layout<3> layout(4, 5, 6);
  EXPECT_EQ(layout.size(), 120);
  EXPECT_EQ(layout.stride(0), 30);
  EXPECT_EQ(layout.stride(1), 6);
  EXPECT_EQ(layout.stride(2), 1);
  EXPECT_EQ(layout(0, 0, 0), 0);
  EXPECT_EQ(layout(1, 2, 3), 30 + 12 + 3);
  EXPECT_EQ(layout(3, 4, 5), 119);
}

TEST(View, IndexesUnderlyingStorage) {
  std::vector<double> data(24, 0.0);
  View<double, 2> v(data.data(), 4, 6);
  v(2, 3) = 42.0;
  EXPECT_DOUBLE_EQ(data[2 * 6 + 3], 42.0);
  EXPECT_DOUBLE_EQ(v(2, 3), 42.0);
}

TEST(View, MatchesManualIndexingIn3D) {
  const Index_type ni = 3, nj = 4, nk = 5;
  std::vector<double> data(ni * nj * nk);
  View<double, 3> v(data.data(), ni, nj, nk);
  for (Index_type i = 0; i < ni; ++i) {
    for (Index_type j = 0; j < nj; ++j) {
      for (Index_type k = 0; k < nk; ++k) {
        v(i, j, k) = static_cast<double>(100 * i + 10 * j + k);
      }
    }
  }
  for (Index_type i = 0; i < ni; ++i) {
    for (Index_type j = 0; j < nj; ++j) {
      for (Index_type k = 0; k < nk; ++k) {
        EXPECT_DOUBLE_EQ(data[(i * nj + j) * nk + k],
                         static_cast<double>(100 * i + 10 * j + k));
      }
    }
  }
}

// ------------------------------------------------------------ nested loops

template <typename Policy>
class NestedPolicyTest : public ::testing::Test {};
TYPED_TEST_SUITE(NestedPolicyTest, AllPolicies);

TYPED_TEST(NestedPolicyTest, Forall2DCoversRectangle) {
  const Index_type ni = 37, nj = 53;
  std::vector<int> hits(ni * nj, 0);
  int* h = hits.data();
  forall_2d<TypeParam>(RangeSegment(0, ni), RangeSegment(0, nj),
                       [=](Index_type i, Index_type j) { h[i * nj + j]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

TYPED_TEST(NestedPolicyTest, Forall3DCoversBox) {
  const Index_type ni = 7, nj = 9, nk = 11;
  std::vector<int> hits(ni * nj * nk, 0);
  int* h = hits.data();
  forall_3d<TypeParam>(
      RangeSegment(0, ni), RangeSegment(0, nj), RangeSegment(0, nk),
      [=](Index_type i, Index_type j, Index_type k) {
        h[(i * nj + j) * nk + k]++;
      });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int v) { return v == 1; }));
}

}  // namespace
