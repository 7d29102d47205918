#include "mem/fill.hpp"

#include <algorithm>

#include <omp.h>

#include "port/blocked.hpp"

namespace rperf::mem {

namespace {

constexpr std::uint32_t kA = 1664525u;
constexpr std::uint32_t kC = 1013904223u;

/// Affine composition: applying (a1,c1) then (a2,c2) is (a2*a1, a2*c1+c2).
struct Affine {
  std::uint32_t a = 1u;
  std::uint32_t c = 0u;
};

constexpr Affine compose(Affine first, Affine second) {
  return {second.a * first.a, second.a * first.c + second.c};
}

/// (A, C) composed with itself three more times: one 4-position LCG step.
constexpr Affine kStep4 = compose(compose(Affine{kA, kC}, Affine{kA, kC}),
                                  compose(Affine{kA, kC}, Affine{kA, kC}));

inline double unit_from_state(std::uint32_t state) {
  return (static_cast<double>(state >> 8) + 0.5) / 16777216.0;
}

/// Fill dst[begin, begin+len) of the stream seeded with `state0` (already
/// normalized: zero seeds map to 1). Element i carries the state after
/// i+1 LCG steps; four lanes stride the block so the multiply chains
/// overlap instead of serializing.
template <typename Emit>
void fill_block(std::uint32_t state0, std::int64_t begin, std::int64_t len,
                Emit&& emit) {
  std::uint32_t lane[4];
  const std::int64_t lanes = std::min<std::int64_t>(4, len);
  for (std::int64_t r = 0; r < lanes; ++r) {
    lane[r] = lcg_skip(state0, static_cast<std::uint64_t>(begin + r + 1));
  }
  const std::int64_t groups = len / 4;
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t i = begin + g * 4;
    emit(i + 0, lane[0]);
    emit(i + 1, lane[1]);
    emit(i + 2, lane[2]);
    emit(i + 3, lane[3]);
    lane[0] = kStep4.a * lane[0] + kStep4.c;
    lane[1] = kStep4.a * lane[1] + kStep4.c;
    lane[2] = kStep4.a * lane[2] + kStep4.c;
    lane[3] = kStep4.a * lane[3] + kStep4.c;
  }
  for (std::int64_t r = 0; r < len % 4; ++r) {
    emit(begin + groups * 4 + r, lane[r]);
  }
}

/// Dispatch fixed-size blocks through the portability layer, in parallel
/// when worthwhile. The OpenMP path first-touches pages in the same thread
/// distribution the `omp parallel for` kernel variants will use.
template <typename BlockFn>
void for_each_block(std::int64_t n, BlockFn&& fn) {
  if (n >= kParallelFillThreshold && omp_get_max_threads() > 1) {
    port::forall_blocked<port::omp_parallel_for_exec>(n, kFillBlockElems, fn);
  } else {
    port::forall_blocked<port::seq_exec>(n, kFillBlockElems, fn);
  }
}

}  // namespace

std::uint32_t lcg_skip(std::uint32_t state, std::uint64_t steps) {
  Affine total;              // identity
  Affine step{kA, kC};       // one LCG step
  while (steps != 0) {
    if (steps & 1u) total = compose(total, step);
    step = compose(step, step);
    steps >>= 1;
  }
  return total.a * state + total.c;
}

void fill_random(double* dst, std::int64_t n, std::uint32_t seed) {
  if (n <= 0) return;
  const std::uint32_t state0 = seed ? seed : 1u;
  for_each_block(n, [&](std::int64_t begin, std::int64_t len) {
    fill_block(state0, begin, len, [&](std::int64_t i, std::uint32_t s) {
      dst[i] = unit_from_state(s);
    });
  });
}

void fill_int_random(int* dst, std::int64_t n, int lo, int hi,
                     std::uint32_t seed) {
  if (n <= 0) return;
  const std::uint32_t state0 = seed ? seed : 1u;
  const std::uint32_t span = static_cast<std::uint32_t>(hi - lo) + 1u;
  for_each_block(n, [&](std::int64_t begin, std::int64_t len) {
    fill_block(state0, begin, len, [&](std::int64_t i, std::uint32_t s) {
      dst[i] = lo + static_cast<int>(s % span);
    });
  });
}

void fill_const(double* dst, std::int64_t n, double value) {
  if (n <= 0) return;
  for_each_block(n, [&](std::int64_t begin, std::int64_t len) {
    std::fill(dst + begin, dst + begin + len, value);
  });
}

void fill_ramp(double* dst, std::int64_t n, double lo, double step) {
  if (n <= 0) return;
  for_each_block(n, [&](std::int64_t begin, std::int64_t len) {
    for (std::int64_t i = begin; i < begin + len; ++i) {
      dst[i] = lo + static_cast<double>(i) * step;
    }
  });
}

}  // namespace rperf::mem
