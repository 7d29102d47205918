// Buffer cache: memoizes initialized master datasets keyed by
// (pattern, n, params) so repeated variants of the same kernel get their
// inputs by blocked memcpy instead of regenerating the LCG stream.
//
// A sweep runs each kernel across up to six variants and multiple tunings;
// each cell calls init_data with the *same* (seed, n). The first call
// generates the dataset and stores a master copy; subsequent calls copy it.
// Because the generators are pure functions of (pattern, seed, n), cached
// and freshly generated buffers are bit-identical — the cache can never
// change a checksum, only how fast the bytes appear.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "mem/pool.hpp"

namespace rperf::mem {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t skipped = 0;       ///< datasets not stored (capacity/size)
  std::size_t stored_bytes = 0;
  std::size_t entries = 0;
};

class DataCache {
 public:
  /// Master copies below this element count aren't worth caching.
  static constexpr std::int64_t kMinElems = 4096;
  static constexpr std::size_t kDefaultCapacityBytes = 256ull << 20;

  /// dst[0, n) = the fill_random(seed) stream. Returns true when the data
  /// came from a cached master copy.
  bool fill_random(double* dst, std::int64_t n, std::uint32_t seed);

  /// dst[0, n) = the fill_int_random(lo, hi, seed) stream.
  bool fill_int_random(int* dst, std::int64_t n, int lo, int hi,
                       std::uint32_t seed);

  [[nodiscard]] CacheStats stats() const;
  void reset_stats();

  /// Drop every master copy (returns their chunks to the pool).
  void clear();

  void set_capacity_bytes(std::size_t bytes);

 private:
  enum class Pattern : std::uint8_t { Random, IntRandom };

  struct Key {
    Pattern pattern;
    std::int64_t n;
    std::uint64_t p0;  ///< seed
    std::uint64_t p1;  ///< packed (lo, hi) for IntRandom, 0 otherwise
    bool operator<(const Key& o) const {
      if (pattern != o.pattern) return pattern < o.pattern;
      if (n != o.n) return n < o.n;
      if (p0 != o.p0) return p0 < o.p0;
      return p1 < o.p1;
    }
  };

  template <typename T, typename Generate>
  bool lookup_or_fill(const Key& key, T* dst, std::int64_t n,
                      Generate&& generate);

  mutable std::mutex mutex_;
  std::size_t capacity_bytes_ = kDefaultCapacityBytes;
  std::map<Key, std::vector<std::byte, PoolAllocator<std::byte>>> entries_;
  CacheStats stats_;
};

/// Process-wide dataset cache.
[[nodiscard]] DataCache& data_cache();

}  // namespace rperf::mem
