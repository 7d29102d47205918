#include "mem/pool.hpp"

#include <algorithm>

#include "faults/injector.hpp"

namespace rperf::mem {

namespace {

constexpr std::size_t kHeaderBytes = 64;  // keeps the user pointer 64-aligned

struct RawHeader {
  std::size_t chunk_bytes;  ///< rounded (size-class) payload bytes
};
static_assert(kHeaderBytes >= sizeof(RawHeader));
static_assert(kHeaderBytes % Pool::kAlignment == 0);

RawHeader* header_of(void* user) {
  return reinterpret_cast<RawHeader*>(static_cast<char*>(user) - kHeaderBytes);
}

}  // namespace

Pool::~Pool() { release(); }

std::size_t Pool::size_class_bytes(std::size_t bytes) {
  std::size_t c = kMinClassBytes;
  while (c < bytes) c <<= 1;
  return c;
}

std::size_t Pool::class_index(std::size_t class_bytes) {
  std::size_t idx = 0;
  for (std::size_t c = kMinClassBytes; c < class_bytes; c <<= 1) ++idx;
  return idx;
}

void* Pool::os_allocate(std::size_t class_bytes) {
  void* raw = ::operator new(kHeaderBytes + class_bytes,
                             std::align_val_t{kAlignment});
  static_cast<RawHeader*>(raw)->chunk_bytes = class_bytes;
  return static_cast<char*>(raw) + kHeaderBytes;
}

void Pool::os_free(void* raw) noexcept {
  ::operator delete(raw, std::align_val_t{kAlignment});
}

void* Pool::allocate(std::size_t bytes) {
  // Fault hook first: an injected alloc@KERNEL failure must throw before any
  // bookkeeping, exactly as a real OOM would.
  faults::injector().on_alloc(bytes);

  const std::size_t class_bytes = size_class_bytes(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.alloc_calls;

  const std::size_t idx = class_index(class_bytes);
  if (idx < free_lists_.size() && !free_lists_[idx].empty()) {
    void* raw = free_lists_[idx].back();
    free_lists_[idx].pop_back();
    ++stats_.reuse_hits;
    stats_.bytes_free -= class_bytes;
    stats_.bytes_in_use += class_bytes;
    stats_.high_water_bytes =
        std::max(stats_.high_water_bytes, stats_.bytes_in_use);
    return static_cast<char*>(raw) + kHeaderBytes;
  }

  void* user = os_allocate(class_bytes);
  ++stats_.os_allocs;
  stats_.bytes_in_use += class_bytes;
  stats_.high_water_bytes =
      std::max(stats_.high_water_bytes, stats_.bytes_in_use);
  return user;
}

void Pool::deallocate(void* p, std::size_t /*bytes*/) noexcept {
  if (p == nullptr) return;
  RawHeader* h = header_of(p);
  const std::size_t class_bytes = h->chunk_bytes;
  void* raw = h;

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.bytes_in_use -= class_bytes;
  const std::size_t idx = class_index(class_bytes);
  if (free_lists_.size() <= idx) free_lists_.resize(idx + 1);
  free_lists_[idx].push_back(raw);
  stats_.bytes_free += class_bytes;
}

void Pool::release() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& list : free_lists_) {
    for (void* raw : list) os_free(raw);
    list.clear();
  }
  stats_.bytes_free = 0;
}

PoolStats Pool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Pool::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.high_water_bytes = stats_.bytes_in_use;
  stats_.alloc_calls = 0;
  stats_.reuse_hits = 0;
  stats_.os_allocs = 0;
}

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace rperf::mem
