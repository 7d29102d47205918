// Portable sorts for the rperf portability layer.
//
// `sort` orders a contiguous array ascending; `sort_pairs` orders keys and
// applies the same permutation to values (a stable key sort). The OpenMP
// policies use a parallel block-sort + pairwise merge tree, which gives
// deterministic output identical to the sequential sort.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include <omp.h>

#include "port/policy.hpp"
#include "port/range.hpp"

namespace rperf::port {

namespace detail {

/// Split [0, n) into nearly-equal blocks, sort each in parallel, then merge
/// pairwise (log2 rounds). `buffer` is scratch of size n.
template <typename T>
void parallel_merge_sort(T* data, Index_type n) {
  const int nthreads = omp_get_max_threads();
  Index_type nblocks = 1;
  while (nblocks < nthreads && (n / (nblocks * 2)) >= 1024) nblocks *= 2;
  if (nblocks <= 1 || n < 2048) {
    std::stable_sort(data, data + n);
    return;
  }

  std::vector<Index_type> bounds(static_cast<std::size_t>(nblocks) + 1);
  for (Index_type b = 0; b <= nblocks; ++b) {
    bounds[static_cast<std::size_t>(b)] = b * n / nblocks;
  }

#pragma omp parallel for
  for (Index_type b = 0; b < nblocks; ++b) {
    std::stable_sort(data + bounds[static_cast<std::size_t>(b)],
                     data + bounds[static_cast<std::size_t>(b) + 1]);
  }

  std::vector<T> buffer(static_cast<std::size_t>(n));
  for (Index_type width = 1; width < nblocks; width *= 2) {
#pragma omp parallel for
    for (Index_type b = 0; b < nblocks; b += 2 * width) {
      const Index_type lo = bounds[static_cast<std::size_t>(b)];
      const Index_type mid =
          bounds[static_cast<std::size_t>(std::min(b + width, nblocks))];
      const Index_type hi =
          bounds[static_cast<std::size_t>(std::min(b + 2 * width, nblocks))];
      if (mid < hi) {
        std::merge(data + lo, data + mid, data + mid, data + hi,
                   buffer.begin() + lo);
        std::copy(buffer.begin() + lo, buffer.begin() + hi, data + lo);
      }
    }
  }
}

}  // namespace detail

template <typename Policy, typename T>
inline void sort(T* data, Index_type n) {
  if constexpr (is_sequential_policy_v<Policy>) {
    std::sort(data, data + n);
  } else {
    detail::parallel_merge_sort(data, n);
  }
}

/// Stable key-value sort: reorders `keys` ascending and permutes `values`
/// identically. Implemented as an index sort to keep a single code path for
/// all policies.
template <typename Policy, typename K, typename V>
inline void sort_pairs(K* keys, V* values, Index_type n) {
  struct Pair {
    K key;
    V value;
    bool operator<(const Pair& o) const { return key < o.key; }
  };
  std::vector<Pair> pairs(static_cast<std::size_t>(n));
  for (Index_type i = 0; i < n; ++i) {
    pairs[static_cast<std::size_t>(i)] = Pair{keys[i], values[i]};
  }
  if constexpr (is_sequential_policy_v<Policy>) {
    std::stable_sort(pairs.begin(), pairs.end());
  } else {
    detail::parallel_merge_sort(pairs.data(), n);
  }
  for (Index_type i = 0; i < n; ++i) {
    keys[i] = pairs[static_cast<std::size_t>(i)].key;
    values[i] = pairs[static_cast<std::size_t>(i)].value;
  }
}

}  // namespace rperf::port
