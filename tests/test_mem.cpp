// Tests for the rperf::mem subsystem: size-class pool, deterministic
// fills, and the blocked checksum's thread invariance.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include <omp.h>

#include "faults/injector.hpp"
#include "mem/fill.hpp"
#include "mem/pool.hpp"
#include "suite/data_utils.hpp"

namespace {

using namespace rperf;

// ---------------------------------------------------------------- pool

TEST(MemPool, SizeClassRounding) {
  EXPECT_EQ(mem::Pool::size_class_bytes(0), 64u);
  EXPECT_EQ(mem::Pool::size_class_bytes(1), 64u);
  EXPECT_EQ(mem::Pool::size_class_bytes(64), 64u);
  EXPECT_EQ(mem::Pool::size_class_bytes(65), 128u);
  EXPECT_EQ(mem::Pool::size_class_bytes(4096), 4096u);
  EXPECT_EQ(mem::Pool::size_class_bytes(4097), 8192u);
  EXPECT_EQ(mem::Pool::size_class_bytes((1u << 20) + 1), 2u << 20);
}

TEST(MemPool, AllocationsAre64ByteAligned) {
  mem::Pool pool;
  for (std::size_t bytes : {1u, 63u, 64u, 1000u, 4096u, 100000u}) {
    void* p = pool.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << bytes;
    pool.deallocate(p, bytes);
  }
}

TEST(MemPool, ResetNotFreeSemantics) {
  mem::Pool pool;
  void* p = pool.allocate(10000);  // class 16384
  auto s = pool.stats();
  EXPECT_EQ(s.bytes_in_use, 16384u);
  EXPECT_EQ(s.bytes_free, 0u);
  EXPECT_EQ(s.os_allocs, 1u);

  pool.deallocate(p, 10000);
  s = pool.stats();
  EXPECT_EQ(s.bytes_in_use, 0u);
  EXPECT_EQ(s.bytes_free, 16384u);  // parked, not returned to the OS

  // Same size class (different byte count) is served from the free list.
  void* q = pool.allocate(9000);
  s = pool.stats();
  EXPECT_EQ(q, p);  // recycled chunk
  EXPECT_EQ(s.reuse_hits, 1u);
  EXPECT_EQ(s.os_allocs, 1u);  // no new OS allocation
  pool.deallocate(q, 9000);
}

TEST(MemPool, HighWaterTracksPeakInUse) {
  mem::Pool pool;
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  EXPECT_EQ(pool.stats().high_water_bytes, 128u);
  pool.deallocate(a, 64);
  pool.deallocate(b, 64);
  EXPECT_EQ(pool.stats().high_water_bytes, 128u);  // sticky
  pool.reset_stats();
  EXPECT_EQ(pool.stats().high_water_bytes, 0u);  // restarts from in-use
}

TEST(MemPool, ReleaseTrimsFreeLists) {
  mem::Pool pool;
  void* p = pool.allocate(1 << 16);
  pool.deallocate(p, 1 << 16);
  EXPECT_GT(pool.stats().bytes_free, 0u);
  pool.release();
  EXPECT_EQ(pool.stats().bytes_free, 0u);
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
}

TEST(MemPool, PoolAllocatorVectorsAreAligned) {
  suite::Real_vec v(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  suite::Int_vec w(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % 64, 0u);
}

// ---------------------------------------------------------------- fills

/// Sets the OpenMP team size for a scope and restores the previous one,
/// also when an assertion returns early.
class ScopedTeam {
 public:
  explicit ScopedTeam(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ScopedTeam() { omp_set_num_threads(saved_); }
  ScopedTeam(const ScopedTeam&) = delete;
  ScopedTeam& operator=(const ScopedTeam&) = delete;

 private:
  int saved_;
};

// Every team size must produce the same bytes: a pooled Seq cell fills its
// inputs on a team of one, an in-process sweep on the machine's, and their
// checksums are compared bit for bit. The largest n of each test is at
// least kParallelFillThreshold, so teams above one take the parallel path.
TEST(MemFill, RandomBitIdenticalToSerialLcg) {
  for (int team : {1, 2, 4}) {
    const ScopedTeam scoped(team);
    for (std::int64_t n : {1, 5, 4095, 4096, 4097, 100000}) {
      std::vector<double> fast(static_cast<std::size_t>(n));
      mem::fill_random(fast.data(), n, 31u);
      std::uint32_t state = 31u;
      for (std::int64_t i = 0; i < n; ++i) {
        state = state * 1664525u + 1013904223u;
        const double ref =
            (static_cast<double>(state >> 8) + 0.5) / 16777216.0;
        ASSERT_EQ(0, std::memcmp(&fast[static_cast<std::size_t>(i)], &ref,
                                 sizeof(double)))
            << "team=" << team << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(MemFill, IntRandomBitIdenticalToSerialLcg) {
  const std::uint32_t span = static_cast<std::uint32_t>(11 - (-3)) + 1u;
  for (int team : {1, 2, 4}) {
    const ScopedTeam scoped(team);
    for (std::int64_t n :
         {std::int64_t{50000}, mem::kParallelFillThreshold + 4097}) {
      std::vector<int> fast(static_cast<std::size_t>(n));
      mem::fill_int_random(fast.data(), n, -3, 11, 1201u);
      std::uint32_t state = 1201u;
      for (std::int64_t i = 0; i < n; ++i) {
        state = state * 1664525u + 1013904223u;
        ASSERT_EQ(fast[static_cast<std::size_t>(i)],
                  -3 + static_cast<int>(state % span))
            << "team=" << team << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(MemFill, ZeroSeedNormalizedLikeSerialLcg) {
  double a = 0.0, b = 0.0;
  mem::fill_random(&a, 1, 0u);
  mem::fill_random(&b, 1, 1u);  // serial Lcg mapped seed 0 to 1
  EXPECT_EQ(a, b);
}

TEST(MemFill, LcgSkipMatchesStepping) {
  std::uint32_t state = 7u;
  for (std::uint64_t k = 0; k <= 100; ++k) {
    EXPECT_EQ(mem::lcg_skip(7u, k), state) << k;
    state = state * 1664525u + 1013904223u;
  }
}

// ------------------------------------------------------------- checksum

TEST(MemChecksum, ThreadCountInvariance) {
  const suite::Index_type n = 300000;  // above the parallel threshold
  suite::Real_vec data;
  suite::init_data(data, n, 1711u);

  const int saved = omp_get_max_threads();
  long double sums[3];
  int idx = 0;
  for (int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    sums[idx++] = suite::calc_checksum(data);
  }
  omp_set_num_threads(saved);

  // Exactly equal, not merely close. (Compared as values, not raw bytes:
  // x86 long double carries 6 padding bytes of indeterminate content.)
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
}

TEST(MemChecksum, PooledVsFreshBuffersIdentical) {
  const suite::Index_type n = 100000;
  suite::Real_vec pooled;
  suite::init_data(pooled, n, 1723u);
  const long double pooled_sum = suite::calc_checksum(pooled);

  std::vector<double> fresh(static_cast<std::size_t>(n));
  mem::fill_random(fresh.data(), n, 1723u);
  const long double fresh_sum =
      suite::calc_checksum(fresh.data(), static_cast<suite::Index_type>(n));

  EXPECT_EQ(pooled_sum, fresh_sum);
}

TEST(MemChecksum, MatchesLegacyWithinRounding) {
  const suite::Index_type n = 50000;
  std::vector<double> data(static_cast<std::size_t>(n));
  mem::fill_random(data.data(), n, 1747u);

  const long double blocked = suite::calc_checksum(data.data(), n);
  // Reference: the serial element-at-a-time long double sum of
  // data[i] * ((i % 7) + 1) that the blocked checksum regroups.
  long double reference = 0.0L;
  for (suite::Index_type i = 0; i < n; ++i) {
    reference += static_cast<long double>(data[static_cast<std::size_t>(i)]) *
                 static_cast<long double>((i % 7) + 1);
  }

  EXPECT_TRUE(suite::checksums_match(blocked, reference, 1e-12))
      << "blocked=" << static_cast<double>(blocked)
      << " reference=" << static_cast<double>(reference);
}

TEST(MemChecksum, DetectsPermutation) {
  const suite::Index_type n = 10000;
  std::vector<double> data(static_cast<std::size_t>(n));
  mem::fill_random(data.data(), n, 1753u);
  const long double before = suite::calc_checksum(data.data(), n);
  std::swap(data[3], data[9000]);
  const long double after = suite::calc_checksum(data.data(), n);
  EXPECT_FALSE(suite::checksums_match(before, after, 1e-12));
}

// --------------------------------------------------- fault integration

TEST(MemFaults, AllocFaultFiresThroughPool) {
  faults::injector().configure("alloc@TestCell");
  {
    faults::ScopedCell cell("TestCell");
    suite::Real_vec v;
    EXPECT_THROW(suite::init_data(v, 100000, 31u), std::bad_alloc);
  }
  // Outside the cell the hook is inert.
  suite::Real_vec v;
  suite::init_data(v, 1000, 31u);
  EXPECT_EQ(v.size(), 1000u);
  faults::injector().reset();
}

TEST(MemFaults, PoolAllocateItselfThrowsInsideFaultedCell) {
  faults::injector().configure("alloc@PoolCell");
  {
    faults::ScopedCell cell("PoolCell");
    EXPECT_THROW(mem::pool().allocate(4096), std::bad_alloc);
  }
  faults::injector().reset();
}

}  // namespace
