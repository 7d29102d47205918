// Multi-dimensional data views for the rperf portability layer.
//
// A `Layout<N>` maps an N-dimensional index tuple to a linear offset using
// row-major strides over a given extent. A `View<T, N>` binds a layout to a
// raw pointer and provides operator() indexing. Views are non-owning;
// kernels allocate flat buffers and wrap them, exactly as RAJA kernels do.
#pragma once

#include <array>
#include <cstddef>

#include "port/range.hpp"

namespace rperf::port {

template <std::size_t N>
class Layout {
 public:
  Layout() = default;

  /// Row-major layout: last extent varies fastest.
  template <typename... Extents>
    requires(sizeof...(Extents) == N)
  explicit Layout(Extents... extents)
      : extents_{static_cast<Index_type>(extents)...} {
    Index_type running = 1;
    for (std::size_t d = N; d-- > 0;) {
      strides_[d] = running;
      running *= extents_[d];
    }
  }

  template <typename... Indices>
    requires(sizeof...(Indices) == N)
  [[nodiscard]] Index_type operator()(Indices... indices) const {
    const std::array<Index_type, N> idx{static_cast<Index_type>(indices)...};
    Index_type offset = 0;
    for (std::size_t d = 0; d < N; ++d) offset += idx[d] * strides_[d];
    return offset;
  }

  [[nodiscard]] Index_type extent(std::size_t dim) const {
    return extents_[dim];
  }
  [[nodiscard]] Index_type stride(std::size_t dim) const {
    return strides_[dim];
  }
  [[nodiscard]] Index_type size() const {
    Index_type s = 1;
    for (auto e : extents_) s *= e;
    return s;
  }

 private:
  std::array<Index_type, N> extents_{};
  std::array<Index_type, N> strides_{};
};

template <typename T, std::size_t N>
class View {
 public:
  View() = default;
  View(T* data, Layout<N> layout) : data_(data), layout_(layout) {}

  /// Convenience: row-major view from extents.
  template <typename... Extents>
    requires(sizeof...(Extents) == N)
  View(T* data, Extents... extents)
      : data_(data), layout_(extents...) {}

  template <typename... Indices>
    requires(sizeof...(Indices) == N)
  [[nodiscard]] T& operator()(Indices... indices) const {
    return data_[layout_(indices...)];
  }

  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] const Layout<N>& layout() const { return layout_; }

 private:
  T* data_ = nullptr;
  Layout<N> layout_{};
};

}  // namespace rperf::port
