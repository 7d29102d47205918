// Deterministic, block-decomposable data initialization primitives.
//
// The suite's original initializers walked a single 32-bit LCG stream
// serially; that chain dependency (~4 cycles/element) made setup a large
// fraction of sweep wall time. These fills produce *bit-identical* output
// to that serial stream while breaking the dependency two ways:
//
//   * jump-ahead: the LCG state after k steps is an affine function of the
//     initial state, computable in O(log k), so any block of the output can
//     be generated independently — fixed 4096-element blocks are dispatched
//     across OpenMP threads with a static schedule (which also first-touches
//     pages in the same distribution the OpenMP kernel variants use);
//   * lane interleave: within a block, four lanes each step the LCG by 4
//     positions (state' = A^4*state + C^4-composition), turning one serial
//     multiply chain into four independent ones the core can overlap.
//
// Because every element's value depends only on its index and the seed,
// results are identical for any thread count and any block schedule: a
// serial worker and a four-thread in-process sweep regenerate the same
// bytes, so no copy of an input needs to be kept between cells.
#pragma once

#include <cstdint>

namespace rperf::mem {

/// Elements per independently generated block (also the checksum block
/// size in suite/data_utils). Fixed: changing it changes nothing about the
/// fill output, but keep it stable so blocking stays easy to reason about.
inline constexpr std::int64_t kFillBlockElems = 4096;

/// Below this many elements the fills skip the OpenMP dispatch entirely.
inline constexpr std::int64_t kParallelFillThreshold = 1 << 16;

/// LCG state after `steps` applications of s -> s*A + C (numerical recipes
/// constants, matching the suite's historical serial generator).
[[nodiscard]] std::uint32_t lcg_skip(std::uint32_t state, std::uint64_t steps);

/// dst[i] = deterministic uniform double in (0, 1), for i in [0, n).
/// Bit-identical to the historical serial `Lcg(seed).next_unit()` stream.
void fill_random(double* dst, std::int64_t n, std::uint32_t seed);

/// dst[i] = deterministic uniform int in [lo, hi]; bit-identical to the
/// historical serial `lo + Lcg(seed).next() % span` stream.
void fill_int_random(int* dst, std::int64_t n, int lo, int hi,
                     std::uint32_t seed);

/// dst[i] = value.
void fill_const(double* dst, std::int64_t n, double value);

/// dst[i] = lo + i * step (same expression as the historical serial ramp).
void fill_ramp(double* dst, std::int64_t n, double lo, double step);

}  // namespace rperf::mem
