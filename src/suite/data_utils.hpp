// Deterministic data initialization and checksum helpers.
//
// All variants of a kernel must see bit-identical input data so their
// checksums can be compared; initialization therefore uses a fixed-seed
// linear congruential generator rather than std::random_device.
//
// Kernel working sets live in Real_vec / Int_vec — std::vectors backed by
// the pooled arena allocator — and every init_* call regenerates its input
// through mem::fill_*: blocked (parallel for large n) jump-ahead streams
// bit-identical to a serial LCG for any thread count. Nothing is kept
// between cells, so a cell's tearDown returns all of its memory.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "faults/injector.hpp"
#include "mem/fill.hpp"
#include "mem/pool.hpp"
#include "suite/types.hpp"

namespace rperf::suite {

/// Kernel working-set vector types: pooled, 64-byte aligned, and default-
/// initialized on resize (every element is overwritten by an init_data*
/// call, so the usual zero-fill would be wasted work).
using Real_vec = std::vector<double, mem::PoolAllocator<double>>;
using Int_vec = std::vector<int, mem::PoolAllocator<int>>;

namespace detail {

template <typename T, typename Alloc>
void prepare(std::vector<T, Alloc>& v, Index_type n) {
  if constexpr (!std::is_same_v<Alloc, mem::PoolAllocator<T>>) {
    // Pooled vectors hit the injector inside Pool::allocate; anything else
    // bypasses the pool, so fire the alloc fault hook here to keep the
    // PR-1 failure surface intact.
    faults::injector().on_alloc(static_cast<std::size_t>(n) * sizeof(T));
  }
  v.resize(static_cast<std::size_t>(n));
}

}  // namespace detail

/// Deterministic uniform doubles in (0, 1).
template <typename Alloc>
void init_data(std::vector<double, Alloc>& v, Index_type n,
               std::uint32_t seed = 7u) {
  detail::prepare(v, n);
  mem::fill_random(v.data(), n, seed);
}

/// Fill with a constant.
template <typename Alloc>
void init_data_const(std::vector<double, Alloc>& v, Index_type n,
                     double value) {
  detail::prepare(v, n);
  mem::fill_const(v.data(), n, value);
}

/// Linear ramp: v[i] = lo + i * (hi - lo) / n.
template <typename Alloc>
void init_data_ramp(std::vector<double, Alloc>& v, Index_type n, double lo,
                    double hi) {
  detail::prepare(v, n);
  mem::fill_ramp(v.data(), n, lo,
                 n > 0 ? (hi - lo) / static_cast<double>(n) : 0.0);
}

/// Deterministic uniform integers in [lo, hi].
template <typename Alloc>
void init_int_data(std::vector<int, Alloc>& v, Index_type n, int lo, int hi,
                   std::uint32_t seed = 7u) {
  detail::prepare(v, n);
  mem::fill_int_random(v.data(), n, lo, hi, seed);
}

/// Order-stable weighted checksum: sum of data[i] * w(i) with w(i) =
/// (i % 7) + 1, so permutations of the data are (almost surely) detected.
///
/// The blocking and fold order are explicit and fixed: consecutive
/// 4096-element blocks; within a block four stride-4 double lanes are
/// accumulated and folded lane 0..3 into a long double block partial;
/// block partials are folded in ascending block order into the result.
/// Every quantity depends only on (data, n), never on the thread count or
/// schedule, so the value is bit-identical for 1, 2, or 8 threads and for
/// pooled or freshly allocated buffers.
[[nodiscard]] long double calc_checksum(const double* data, Index_type n);
[[nodiscard]] long double calc_checksum(const int* data, Index_type n);

template <typename Alloc>
[[nodiscard]] long double calc_checksum(const std::vector<double, Alloc>& v) {
  return calc_checksum(v.data(), static_cast<Index_type>(v.size()));
}
template <typename Alloc>
[[nodiscard]] long double calc_checksum(const std::vector<int, Alloc>& v) {
  return calc_checksum(v.data(), static_cast<Index_type>(v.size()));
}

/// Relative agreement test used for cross-variant validation.
[[nodiscard]] bool checksums_match(long double a, long double b,
                                   double rel_tol);

/// |a - b| / max(|a|, |b|); 0 when both are 0.
[[nodiscard]] long double relative_difference(long double a, long double b);

/// The largest relative difference two orderings of one sum of `n`
/// non-negative doubles can show: 2 * n * 2^-53. Each ordering lies within
/// (n - 1) * 2^-53 of the exact sum, relative (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, sec. 4.2). A sum whose terms can
/// cancel has no such bound relative to its value.
[[nodiscard]] long double reorder_bound(Index_type n);

/// Whether two checksums of one (kernel, variant, tuning) cell agree under
/// the variant's order class: bit for bit for Exact, within
/// reorder_bound(n) for Unordered, with `n` the cell's problem size. Exact
/// is == rather than memcmp: x86 long double carries padding bytes that are
/// not part of the value.
[[nodiscard]] bool checksums_agree(long double a, long double b,
                                   ChecksumOrder order, Index_type n);

}  // namespace rperf::suite
