// Reduction objects for the rperf portability layer.
//
// Reducers follow the RAJA idiom: a reducer object is captured by value in a
// kernel lambda, combined into from any thread, and read on the host after
// the loop completes:
//
//   ReduceSum<omp_parallel_for_exec, double> sum(0.0);
//   forall<omp_parallel_for_exec>(RangeSegment(0, n),
//                                 [=](Index_type i) { sum += x[i] * y[i]; });
//   double dot = sum.get();
//
// The OpenMP reducers accumulate into per-thread cache-line-padded slots to
// avoid false sharing; `get()` folds the slots. Copies of a reducer share
// state through a shared_ptr so capture-by-value works as expected.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <omp.h>

#include "port/policy.hpp"
#include "port/range.hpp"

namespace rperf::port {

namespace detail {

inline int max_threads() { return omp_get_max_threads(); }
inline int thread_num() { return omp_get_thread_num(); }

/// Cache-line padded accumulator slot (avoids false sharing across threads).
template <typename T>
struct alignas(64) PaddedSlot {
  T value;
};

template <typename T, typename Op>
struct ReduceState {
  explicit ReduceState(T init, T identity)
      : initial(init), slots(static_cast<std::size_t>(max_threads())) {
    for (auto& s : slots) s.value = identity;
  }
  T initial;
  std::vector<PaddedSlot<T>> slots;
};

}  // namespace detail

/// Generic reducer; Op is a stateless callable combining two T values.
template <typename Policy, typename T, typename Op>
class Reducer {
  static_assert(is_execution_policy_v<Policy>,
                "Reducer requires an execution policy");

 public:
  Reducer(T init, T identity, Op op = Op{})
      : state_(std::make_shared<detail::ReduceState<T, Op>>(init, identity)),
        identity_(identity),
        op_(op) {}

  /// Combine a value from the current thread.
  void combine(const T& v) const {
    auto& slot = state_->slots[static_cast<std::size_t>(
        is_openmp_policy_v<Policy> ? detail::thread_num() : 0)];
    slot.value = op_(slot.value, v);
  }

  /// Fold all thread-local partials with the initial value.
  [[nodiscard]] T get() const {
    T result = state_->initial;
    for (const auto& s : state_->slots) result = op_(result, s.value);
    return result;
  }

  /// Reset thread partials and replace the initial value.
  void reset(T init) {
    state_->initial = init;
    for (auto& s : state_->slots) s.value = identity_;
  }

 protected:
  std::shared_ptr<detail::ReduceState<T, Op>> state_;
  T identity_;
  Op op_;
};

namespace detail {
template <typename T>
struct SumOp {
  T operator()(const T& a, const T& b) const { return a + b; }
};
template <typename T>
struct MinOp {
  T operator()(const T& a, const T& b) const { return b < a ? b : a; }
};
template <typename T>
struct MaxOp {
  T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};
}  // namespace detail

template <typename Policy, typename T>
class ReduceSum : public Reducer<Policy, T, detail::SumOp<T>> {
  using Base = Reducer<Policy, T, detail::SumOp<T>>;

 public:
  explicit ReduceSum(T init = T{}) : Base(init, T{}) {}
  const ReduceSum& operator+=(const T& v) const {
    this->combine(v);
    return *this;
  }
};

template <typename Policy, typename T>
class ReduceMin : public Reducer<Policy, T, detail::MinOp<T>> {
  using Base = Reducer<Policy, T, detail::MinOp<T>>;

 public:
  explicit ReduceMin(T init = std::numeric_limits<T>::max())
      : Base(init, std::numeric_limits<T>::max()) {}
  const ReduceMin& min(const T& v) const {
    this->combine(v);
    return *this;
  }
};

template <typename Policy, typename T>
class ReduceMax : public Reducer<Policy, T, detail::MaxOp<T>> {
  using Base = Reducer<Policy, T, detail::MaxOp<T>>;

 public:
  explicit ReduceMax(T init = std::numeric_limits<T>::lowest())
      : Base(init, std::numeric_limits<T>::lowest()) {}
  const ReduceMax& max(const T& v) const {
    this->combine(v);
    return *this;
  }
};

/// Min-with-location reducer: tracks the smallest value and its index.
/// Ties resolve to the smallest index, independent of thread count.
template <typename Policy, typename T>
class ReduceMinLoc {
  struct ValLoc {
    T val;
    Index_type loc;
  };
  struct MinLocOp {
    ValLoc operator()(const ValLoc& a, const ValLoc& b) const {
      if (b.val < a.val) return b;
      if (a.val < b.val) return a;
      return b.loc < a.loc ? b : a;
    }
  };

 public:
  ReduceMinLoc(T init = std::numeric_limits<T>::max(), Index_type loc = -1)
      : reducer_(ValLoc{init, loc},
                 ValLoc{std::numeric_limits<T>::max(), -1}) {}

  const ReduceMinLoc& minloc(const T& v, Index_type loc) const {
    reducer_.combine(ValLoc{v, loc});
    return *this;
  }
  [[nodiscard]] T get() const { return reducer_.get().val; }
  [[nodiscard]] Index_type getLoc() const { return reducer_.get().loc; }
  void reset(T init, Index_type loc = -1) { reducer_.reset(ValLoc{init, loc}); }

 private:
  Reducer<Policy, ValLoc, MinLocOp> reducer_;
};

}  // namespace rperf::port
