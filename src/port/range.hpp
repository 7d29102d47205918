// Iteration-space segments for the rperf portability layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
class ListSegment {
 public:
  ListSegment() = default;
  explicit ListSegment(std::vector<Index_type> indices)
      : indices_(std::move(indices)) {}
  ListSegment(const Index_type* data, std::size_t count)
      : indices_(data, data + count) {}

  [[nodiscard]] Index_type size() const {
    return static_cast<Index_type>(indices_.size());
  }
  [[nodiscard]] const Index_type* data() const { return indices_.data(); }
  [[nodiscard]] Index_type operator[](Index_type i) const {
    return indices_[static_cast<std::size_t>(i)];
  }

 private:
  std::vector<Index_type> indices_;
};

}  // namespace rperf::port
