// Execution policy tags for the rperf portability layer.
//
// A policy is a zero-size tag type selecting how `forall`, reducers, scans,
// and sorts execute. This mirrors the policy mechanism of performance
// portability layers such as RAJA: kernels are written once against a
// lambda-based API and dispatched to a backend at compile time.
#pragma once

#include <type_traits>

namespace rperf::port {

/// Sequential execution, no vectorization hints.
struct seq_exec {
  static constexpr const char* name = "seq";
};

/// Parallel execution across OpenMP threads (parallel for).
struct omp_parallel_for_exec {
  static constexpr const char* name = "omp_parallel_for";
};

template <typename T>
inline constexpr bool is_sequential_policy_v = std::is_same_v<T, seq_exec>;

template <typename T>
inline constexpr bool is_openmp_policy_v =
    std::is_same_v<T, omp_parallel_for_exec>;

template <typename T>
inline constexpr bool is_execution_policy_v =
    is_sequential_policy_v<T> || is_openmp_policy_v<T>;

}  // namespace rperf::port
