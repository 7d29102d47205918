// Iteration-space segments for the rperf portability layer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rperf::port {

using Index_type = std::int64_t;

/// Contiguous half-open index range [begin, end).
class RangeSegment {
 public:
  constexpr RangeSegment(Index_type begin, Index_type end)
      : begin_(begin), end_(end < begin ? begin : end) {}

  [[nodiscard]] constexpr Index_type begin() const { return begin_; }
  [[nodiscard]] constexpr Index_type end() const { return end_; }
  [[nodiscard]] constexpr Index_type size() const { return end_ - begin_; }

 private:
  Index_type begin_;
  Index_type end_;
};

/// Explicit list of indices, in iteration order (may repeat, any order).
/// A view, like RAJA's unowned list segments: it holds a pointer and a
/// count into the caller's storage, which must outlive it.
class ListSegment {
 public:
  constexpr ListSegment(const Index_type* data, std::size_t count)
      : data_(data), size_(static_cast<Index_type>(count)) {}

  [[nodiscard]] constexpr Index_type size() const { return size_; }
  [[nodiscard]] constexpr const Index_type* data() const { return data_; }
  [[nodiscard]] constexpr Index_type operator[](Index_type i) const {
    return data_[i];
  }

 private:
  const Index_type* data_;
  Index_type size_;
};

}  // namespace rperf::port
