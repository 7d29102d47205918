// Parallel prefix sums (scans) for the rperf portability layer.
//
// Sequential policies use a plain running sum. OpenMP policies use the
// classic three-phase algorithm over forall_reduce's fixed blocks (at most
// kReduceBlocks, bounds from n alone), in one parallel region: a local
// scan per block, a serial exclusive scan of the block totals, then an
// offset fix-up per block.
// Because the blocks never depend on the team, a floating-point scan gives
// the same bits at every team size; it may differ from the sequential scan
// by reassociation. Both read each element before writing it, so `in` may
// be `out`.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "port/forall.hpp"
#include "port/policy.hpp"
#include "port/range.hpp"
#include "port/reduce.hpp"

namespace rperf::port {

namespace detail {

template <typename T>
void scan_seq(const T* in, T* out, Index_type n, T init) {
  T running = init;
  for (Index_type i = 0; i < n; ++i) {
    const T v = in[i];
    out[i] = running;
    running += v;
  }
}

template <typename T>
void scan_omp(const T* in, T* out, Index_type n, T init) {
  if (n <= 0) return;
  const Index_type block = reduce_block_elems(n);
  const Index_type nblocks = (n + block - 1) / block;
  std::array<T, kReduceBlocks> offsets{};
  // All three phases in one parallel region: the team is forked once, and
  // the implicit barriers of the first `for` and of `single` order them.
  // Traced, each thread's span covers the three phases, barrier waits
  // included.
  auto phases = [&] {
#pragma omp for schedule(static)
    for (Index_type b = 0; b < nblocks; ++b) {
      const Index_type end = std::min(n, (b + 1) * block);
      T local = T{};
      for (Index_type i = b * block; i < end; ++i) {
        const T v = in[i];
        out[i] = local;
        local += v;
      }
      offsets[static_cast<std::size_t>(b)] = local;
    }
#pragma omp single
    {
      T running = init;
      for (Index_type b = 0; b < nblocks; ++b) {
        const T total = offsets[static_cast<std::size_t>(b)];
        offsets[static_cast<std::size_t>(b)] = running;
        running += total;
      }
    }
#pragma omp for schedule(static) nowait
    for (Index_type b = 0; b < nblocks; ++b) {
      const Index_type end = std::min(n, (b + 1) * block);
      const T offset = offsets[static_cast<std::size_t>(b)];
      for (Index_type i = b * block; i < end; ++i) out[i] += offset;
    }
  };
  if (cali::TraceSink::instance().enabled()) [[unlikely]] {
    traced_omp_parallel(phases);
    return;
  }
#pragma omp parallel
  phases();
}

}  // namespace detail

/// out[i] = init + in[0] + ... + in[i-1]
template <typename Policy, typename T>
inline void exclusive_scan(const T* in, T* out, Index_type n, T init = T{}) {
  if constexpr (is_sequential_policy_v<Policy>) {
    detail::scan_seq(in, out, n, init);
  } else {
    detail::scan_omp(in, out, n, init);
  }
}

}  // namespace rperf::port
