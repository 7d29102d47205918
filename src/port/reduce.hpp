// Reductions for the rperf portability layer.
//
// `forall_reduce` takes the shape of RAJA's parameter reductions: the loop
// body receives the accumulator as an argument, and the call returns the
// result. There is no reducer object shared by the threads:
//
//   const double dot = forall_reduce<omp_parallel_for_exec>(
//       RangeSegment(0, n), 0.0, std::plus<>{},
//       [=](Index_type i, double& sum) { sum += x[i] * y[i]; });
//
// The range is cut into at most kReduceBlocks blocks whose bounds depend on
// its length alone. Each block accumulates into its own copy of `identity`,
// and the block results are combined serially in block order. Both
// policies therefore perform the same operations in the same order: a
// floating-point reduction gives the same bits under seq_exec and
// omp_parallel_for_exec, at every OpenMP team size.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "port/blocked.hpp"
#include "port/policy.hpp"
#include "port/range.hpp"

namespace rperf::port {

/// How many blocks a reduction or an OpenMP scan cuts its range into. A
/// fixed count rather than a fixed size, so a small range still spreads
/// over the team; on a host with more hardware threads than blocks, the
/// extra threads sit idle in these loops.
inline constexpr Index_type kReduceBlocks = 64;

namespace detail {

/// Elements per block for a range of n: ceil(n / kReduceBlocks), at least 1.
inline Index_type reduce_block_elems(Index_type n) {
  return std::max<Index_type>(1, (n + kReduceBlocks - 1) / kReduceBlocks);
}

/// One block of a reduction. noinline for the reason checksum_block in
/// suite/data_utils.cpp gives: inlined into the serial loop and into the
/// OpenMP-outlined region, the block could be compiled differently at each
/// call site and give different bits; one out-of-line copy gives one
/// codegen for both policies.
template <typename Acc, typename Body>
[[gnu::noinline]] Acc reduce_block(Index_type begin, Index_type end,
                                   Acc acc, const Body& body) {
  for (Index_type i = begin; i < end; ++i) body(i, acc);
  return acc;
}

}  // namespace detail

/// Reduce body(i, acc) over `seg`: each block starts from `identity`, and
/// the block results are folded in block order with combine(acc, block).
template <typename Policy, typename Acc, typename Combine, typename Body>
Acc forall_reduce(const RangeSegment& seg, Acc identity, Combine combine,
                  const Body& body) {
  const Index_type first = seg.begin();
  const Index_type n = seg.size();
  const Index_type block = detail::reduce_block_elems(n);
  std::array<Acc, kReduceBlocks> partials{};
  forall_blocked<Policy>(n, block, [&](Index_type begin, Index_type len) {
    partials[static_cast<std::size_t>(begin / block)] = detail::reduce_block(
        first + begin, first + begin + len, identity, body);
  });
  Acc result = identity;
  for (Index_type b = 0; b * block < n; ++b) {
    result = combine(result, partials[static_cast<std::size_t>(b)]);
  }
  return result;
}

}  // namespace rperf::port
