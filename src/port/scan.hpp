// Parallel prefix sums (scans) for the rperf portability layer.
//
// Sequential policies use a plain running sum. OpenMP policies use the
// classic three-phase blocked algorithm: per-thread local scan, exclusive
// scan of block totals, then per-thread offset fix-up. The result is
// identical to the sequential scan for associative/commutative ops on
// integers; for floating point the usual reassociation caveats apply.
#pragma once

#include <vector>

#include <omp.h>

#include "port/policy.hpp"
#include "port/range.hpp"

namespace rperf::port {

namespace detail {

template <typename T>
void scan_seq(const T* in, T* out, Index_type n, T init) {
  T running = init;
  for (Index_type i = 0; i < n; ++i) {
    out[i] = running;
    running += in[i];
  }
}

template <typename T>
void scan_omp(const T* in, T* out, Index_type n, T init) {
  const int nthreads = omp_get_max_threads();
  if (n < 4 * nthreads) {  // not worth parallelizing
    scan_seq(in, out, n, init);
    return;
  }
  std::vector<T> block_totals(static_cast<std::size_t>(nthreads) + 1, T{});
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    const Index_type chunk = (n + nthreads - 1) / nthreads;
    const Index_type begin = tid * chunk;
    const Index_type end = std::min<Index_type>(begin + chunk, n);

    // Phase 1: local scan of this thread's block.
    T local = T{};
    for (Index_type i = begin; i < end; ++i) {
      out[i] = local;
      local += in[i];
    }
    block_totals[static_cast<std::size_t>(tid) + 1] = local;

#pragma omp barrier
#pragma omp single
    {
      // Phase 2: exclusive scan of block totals.
      T running = init;
      for (int t = 0; t <= nthreads; ++t) {
        T next = block_totals[static_cast<std::size_t>(t)];
        block_totals[static_cast<std::size_t>(t)] = running;
        running += next;
      }
    }

    // Phase 3: add the block offset.
    const T offset = block_totals[static_cast<std::size_t>(tid) + 1];
    for (Index_type i = begin; i < end; ++i) {
      out[i] += offset;
    }
  }
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
