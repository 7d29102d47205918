// Portable atomic read-modify-write operations.
//
// These wrap std::atomic_ref so kernels can express atomics on plain arrays
// without changing storage types — matching how portability layers expose
// `atomicAdd(&x[i], v)` across backends. All operations use relaxed memory
// order: the kernels only need atomicity of the arithmetic, and each loop is
// followed by an implicit barrier (end of parallel region) that publishes
// results.
#pragma once

#include <atomic>
#include <type_traits>

namespace rperf::port {

template <typename T>
inline T atomicAdd(T* address, T value) {
  static_assert(std::atomic_ref<T>::is_always_lock_free,
                "atomicAdd requires a lock-free atomic_ref");
  return std::atomic_ref<T>(*address).fetch_add(value,
                                                std::memory_order_relaxed);
}

/// fetch_add for floating point: atomic_ref supports it directly in C++20.
inline double atomicAdd(double* address, double value) {
  return std::atomic_ref<double>(*address).fetch_add(
      value, std::memory_order_relaxed);
}

inline float atomicAdd(float* address, float value) {
  return std::atomic_ref<float>(*address).fetch_add(value,
                                                    std::memory_order_relaxed);
}

}  // namespace rperf::port
