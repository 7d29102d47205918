// Portable atomic read-modify-write operations.
//
// `atomicAdd<Policy>(&x[i], v)` expresses an atomic on a plain array without
// changing its storage type, and the policy says what the caller's
// execution needs — matching how portability layers expose
// `atomicAdd<seq_atomic>` / `atomicAdd<omp_atomic>` across backends:
//
//   seq_atomic  a plain add: the loop runs on one thread, so nothing can
//               interleave with the update;
//   omp_atomic  a relaxed std::atomic_ref fetch_add: the kernels only need
//               atomicity of the arithmetic, and each loop is followed by
//               an implicit barrier (end of parallel region) that
//               publishes results.
//
// Both compute the same sum, so a sequential loop gives the same bits
// under either policy.
#pragma once

#include <atomic>
#include <type_traits>

namespace rperf::port {

/// Atomic policy for sequential execution: a plain read-add-write.
struct seq_atomic {};

/// Atomic policy for OpenMP execution: a lock-free atomic fetch_add.
struct omp_atomic {};

/// *address += value under `Policy`; returns the previous value.
template <typename Policy, typename T>
inline T atomicAdd(T* address, std::type_identity_t<T> value) {
  if constexpr (std::is_same_v<Policy, seq_atomic>) {
    const T old = *address;
    *address = old + value;
    return old;
  } else {
    static_assert(std::is_same_v<Policy, omp_atomic>,
                  "atomicAdd policy must be seq_atomic or omp_atomic");
    static_assert(std::atomic_ref<T>::is_always_lock_free,
                  "atomicAdd requires a lock-free atomic_ref");
    return std::atomic_ref<T>(*address).fetch_add(value,
                                                  std::memory_order_relaxed);
  }
}

}  // namespace rperf::port
