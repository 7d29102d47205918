#include "mem/cache.hpp"

#include "mem/fill.hpp"

namespace rperf::mem {

template <typename T, typename Generate>
bool DataCache::lookup_or_fill(const Key& key, T* dst, std::int64_t n,
                               Generate&& generate) {
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (n < kMinElems) {
      ++stats_.skipped;
    } else if (auto it = entries_.find(key); it != entries_.end()) {
      ++stats_.hits;
      copy_data(dst, reinterpret_cast<const T*>(it->second.data()), n);
      return true;
    }
  }

  generate(dst, n);

  if (n < kMinElems) return false;

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  if (entries_.count(key) != 0) return false;  // raced-in by another thread
  if (stats_.stored_bytes + bytes > capacity_bytes_) {
    ++stats_.skipped;
    return false;
  }
  std::vector<std::byte, PoolAllocator<std::byte>> master(bytes);
  copy_data(reinterpret_cast<T*>(master.data()), dst, n);
  entries_.emplace(key, std::move(master));
  stats_.stored_bytes += bytes;
  stats_.entries = entries_.size();
  return false;
}

bool DataCache::fill_random(double* dst, std::int64_t n, std::uint32_t seed) {
  if (n <= 0) return false;
  const Key key{Pattern::Random, n, seed, 0};
  return lookup_or_fill(key, dst, n, [seed](double* d, std::int64_t len) {
    mem::fill_random(d, len, seed);
  });
}

bool DataCache::fill_int_random(int* dst, std::int64_t n, int lo, int hi,
                                std::uint32_t seed) {
  if (n <= 0) return false;
  const std::uint64_t range =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) << 32) |
      static_cast<std::uint32_t>(hi);
  const Key key{Pattern::IntRandom, n, seed, range};
  return lookup_or_fill(key, dst, n, [lo, hi, seed](int* d, std::int64_t len) {
    mem::fill_int_random(d, len, lo, hi, seed);
  });
}

CacheStats DataCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void DataCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.hits = 0;
  stats_.misses = 0;
  stats_.skipped = 0;
  // stored_bytes/entries describe current contents, not history: keep them.
  stats_.stored_bytes = 0;
  for (const auto& [key, master] : entries_) {
    stats_.stored_bytes += master.size();
  }
  stats_.entries = entries_.size();
}

void DataCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_.stored_bytes = 0;
  stats_.entries = 0;
}

void DataCache::set_capacity_bytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_bytes_ = bytes;
}

DataCache& data_cache() {
  static DataCache instance;
  return instance;
}

}  // namespace rperf::mem
