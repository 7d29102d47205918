// `forall`: the core loop-execution primitive of the rperf portability layer.
//
// Usage:
//   forall<omp_parallel_for_exec>(RangeSegment(0, n),
//                                 [=](Index_type i) { y[i] += a * x[i]; });
//
// The body receives one index per iteration. Dispatch is resolved at compile
// time from the policy tag; there is no runtime overhead beyond the lambda
// call itself (which the optimizer inlines for the sequential policies).
// When the process-wide TraceSink is enabled, the OpenMP policies switch
// to a traced path that splits `parallel for` into `parallel` + an
// orphaned `for nowait`, so each worker thread can time its own share of
// the iteration space and record it as a ThreadSpan (named after the
// enclosing annotated region). The `nowait` matters: with the implicit
// barrier, every thread's end time would be the slowest thread's, erasing
// exactly the load imbalance the per-thread spans exist to measure. The
// untraced path is byte-for-byte the original pragma, so codegen with
// tracing disabled is unchanged.
#pragma once

#if defined(_OPENMP)
#include <omp.h>
#endif

#include <mutex>

#include "instrument/trace_sink.hpp"
#include "port/policy.hpp"
#include "port/range.hpp"

namespace rperf::port {

namespace detail {

/// Run `loop` inside an OpenMP parallel region, timing each thread and
/// recording per-thread spans plus the instance's max/mean thread time
/// (the load-imbalance inputs). `loop` must contain an orphaned
/// worksharing construct with `nowait`.
///
/// The per-thread stats accumulate under a std::mutex rather than OpenMP
/// reductions: the region's join barrier would order them just as well at
/// runtime, but it lives in the (uninstrumented) OpenMP runtime, so TSan
/// cannot see that happens-before edge. The mutex gives the tsan preset a
/// visible one, on a path that takes the lock once per thread per
/// parallel instance — noise next to the loop body itself.
template <typename Loop>
inline void traced_omp_parallel(Loop&& loop) {
  cali::TraceSink& sink = cali::TraceSink::instance();
  const std::uint32_t region = sink.current_open_name();
#if defined(_OPENMP)
  std::mutex mutex;
  double sum_sec = 0.0;
  double max_sec = 0.0;
  int threads = 1;
#pragma omp parallel
  {
    const int team = omp_get_num_threads();
    const double t0 = sink.now_sec();
    loop();
    const double t1 = sink.now_sec();
    sink.thread_span(region, t0, t1);
    const double dt = t1 - t0;
    const std::lock_guard<std::mutex> lock(mutex);
    sum_sec += dt;
    if (dt > max_sec) max_sec = dt;
    threads = team;
  }
  double sum = 0.0;
  double max = 0.0;
  int team = 1;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    sum = sum_sec;
    max = max_sec;
    team = threads < 1 ? 1 : threads;
  }
  sink.note_parallel_instance(region, max, sum / team, team);
#else
  const double t0 = sink.now_sec();
  loop();
  const double t1 = sink.now_sec();
  sink.thread_span(region, t0, t1);
  sink.note_parallel_instance(region, t1 - t0, t1 - t0, 1);
#endif
}

}  // namespace detail

// ---------------------------------------------------------------- seq_exec
template <typename Policy, typename Body>
  requires std::is_same_v<Policy, seq_exec>
inline void forall(const RangeSegment& seg, Body&& body) {
  const Index_type begin = seg.begin();
  const Index_type end = seg.end();
  for (Index_type i = begin; i < end; ++i) {
    body(i);
  }
}

// ------------------------------------------------- omp_parallel_for_exec
template <typename Policy, typename Body>
  requires std::is_same_v<Policy, omp_parallel_for_exec>
inline void forall(const RangeSegment& seg, Body&& body) {
  const Index_type begin = seg.begin();
  const Index_type end = seg.end();
  if (cali::TraceSink::instance().enabled()) [[unlikely]] {
    detail::traced_omp_parallel([&] {
#pragma omp for nowait
      for (Index_type i = begin; i < end; ++i) {
        body(i);
      }
    });
    return;
  }
#pragma omp parallel for
  for (Index_type i = begin; i < end; ++i) {
    body(i);
  }
}

// --------------------------------------------------------- list segments
template <typename Policy, typename Body>
  requires is_sequential_policy_v<Policy>
inline void forall(const ListSegment& seg, Body&& body) {
  const Index_type* idx = seg.data();
  const Index_type n = seg.size();
  for (Index_type k = 0; k < n; ++k) {
    body(idx[k]);
  }
}

template <typename Policy, typename Body>
  requires is_openmp_policy_v<Policy>
inline void forall(const ListSegment& seg, Body&& body) {
  const Index_type* idx = seg.data();
  const Index_type n = seg.size();
  if (cali::TraceSink::instance().enabled()) [[unlikely]] {
    detail::traced_omp_parallel([&] {
#pragma omp for nowait
      for (Index_type k = 0; k < n; ++k) {
        body(idx[k]);
      }
    });
    return;
  }
#pragma omp parallel for
  for (Index_type k = 0; k < n; ++k) {
    body(idx[k]);
  }
}

}  // namespace rperf::port
