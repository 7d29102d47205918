// rperf::mem — size-class pooled arena for the suite's working sets.
//
// Every (kernel, variant, tuning) cell of a sweep allocates its data in
// setUp and releases it in tearDown, so without pooling the same few
// megabyte-scale buffers are returned to the OS and re-faulted hundreds of
// times per run. The pool keeps freed chunks on per-size-class free lists
// ("reset, don't free"): a released chunk's pages stay mapped — and keep
// their NUMA first-touch placement — so the next cell's allocation of the
// same class is a pop, not an mmap.
//
//   * chunks are 64-byte aligned (cache line / AVX-512 friendly);
//   * size classes are powers of two from 64 bytes up, so a kernel whose
//     problem size wobbles a little between cells still reuses chunks;
//   * stats track bytes in use, reserved bytes, high-water marks, and
//     free-list reuse hits (surfaced per cell as `pool_hit` and per run in
//     profile metadata);
//   * the PR-1 fault injector's `alloc@KERNEL` hook is routed through
//     `Pool::allocate`, so injected allocation failures keep firing on the
//     exact same code path real ones would take;
//   * each chunk carries a header recording its size class, so
//     `deallocate` files it on the right free list whatever byte count
//     the caller passes back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

namespace rperf::mem {

struct PoolStats {
  std::size_t bytes_in_use = 0;     ///< live chunk bytes (rounded to class)
  std::size_t bytes_free = 0;       ///< bytes parked on free lists
  std::size_t high_water_bytes = 0; ///< max bytes_in_use observed
  std::uint64_t alloc_calls = 0;
  std::uint64_t reuse_hits = 0;     ///< allocations served from a free list
  std::uint64_t os_allocs = 0;      ///< allocations that hit operator new

  [[nodiscard]] std::size_t bytes_reserved() const {
    return bytes_in_use + bytes_free;
  }
  [[nodiscard]] double reuse_rate() const {
    return alloc_calls == 0
               ? 0.0
               : static_cast<double>(reuse_hits) /
                     static_cast<double>(alloc_calls);
  }
};

class Pool {
 public:
  static constexpr std::size_t kAlignment = 64;
  static constexpr std::size_t kMinClassBytes = 64;

  Pool() = default;
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Bytes actually reserved for a request: next power of two >= max(bytes,
  /// kMinClassBytes).
  [[nodiscard]] static std::size_t size_class_bytes(std::size_t bytes);

  /// 64-byte-aligned chunk of at least `bytes` bytes. Fires the fault
  /// injector's alloc hook (so alloc@KERNEL specs throw std::bad_alloc from
  /// here), then serves from the matching free list when possible.
  void* allocate(std::size_t bytes);

  /// Return a chunk to its size class's free list.
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Trim: free every cached (free-list) chunk to the OS. Live chunks are
  /// unaffected.
  void release();

  [[nodiscard]] PoolStats stats() const;
  /// Zero the counters; high-water restarts from the current in-use bytes.
  void reset_stats();

 private:
  [[nodiscard]] static std::size_t class_index(std::size_t class_bytes);
  [[nodiscard]] static void* os_allocate(std::size_t class_bytes);
  static void os_free(void* raw) noexcept;

  mutable std::mutex mutex_;
  std::vector<std::vector<void*>> free_lists_;  ///< raw (header) pointers
  PoolStats stats_;
};

/// Process-wide pool (mirrors cali::default_channel()).
[[nodiscard]] Pool& pool();

/// std::allocator adapter over the process-wide pool. Also skips value-
/// initialization of trivial element types on resize: pooled buffers are
/// always overwritten by an init_data* call, so the zeroing pass the
/// default allocator pays is pure waste.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(pool().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool().deallocate(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;  // default-init: no zero fill
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T, typename U>
bool operator==(const PoolAllocator<T>&, const PoolAllocator<U>&) noexcept {
  return true;
}
template <typename T, typename U>
bool operator!=(const PoolAllocator<T>&, const PoolAllocator<U>&) noexcept {
  return false;
}

}  // namespace rperf::mem
