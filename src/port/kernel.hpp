// Nested-loop execution for the rperf portability layer.
//
// `forall_2d` / `forall_3d` execute perfectly-nested rectangular loops. The
// OpenMP variants collapse the outer dimensions so all available parallelism
// is exposed regardless of individual extent sizes — the same motivation as
// RAJA's nested `kernel` policies.
#pragma once

#include "port/policy.hpp"
#include "port/range.hpp"

namespace rperf::port {

template <typename Policy, typename Body>
  requires is_sequential_policy_v<Policy>
inline void forall_2d(const RangeSegment& si, const RangeSegment& sj,
                      Body&& body) {
  for (Index_type i = si.begin(); i < si.end(); ++i) {
    for (Index_type j = sj.begin(); j < sj.end(); ++j) {
      body(i, j);
    }
  }
}

template <typename Policy, typename Body>
  requires is_openmp_policy_v<Policy>
inline void forall_2d(const RangeSegment& si, const RangeSegment& sj,
                      Body&& body) {
  const Index_type ib = si.begin(), ie = si.end();
  const Index_type jb = sj.begin(), je = sj.end();
#pragma omp parallel for collapse(2)
  for (Index_type i = ib; i < ie; ++i) {
    for (Index_type j = jb; j < je; ++j) {
      body(i, j);
    }
  }
}

template <typename Policy, typename Body>
  requires is_sequential_policy_v<Policy>
inline void forall_3d(const RangeSegment& si, const RangeSegment& sj,
                      const RangeSegment& sk, Body&& body) {
  for (Index_type i = si.begin(); i < si.end(); ++i) {
    for (Index_type j = sj.begin(); j < sj.end(); ++j) {
      for (Index_type k = sk.begin(); k < sk.end(); ++k) {
        body(i, j, k);
      }
    }
  }
}

template <typename Policy, typename Body>
  requires is_openmp_policy_v<Policy>
inline void forall_3d(const RangeSegment& si, const RangeSegment& sj,
                      const RangeSegment& sk, Body&& body) {
  const Index_type ib = si.begin(), ie = si.end();
  const Index_type jb = sj.begin(), je = sj.end();
  const Index_type kb = sk.begin(), ke = sk.end();
#pragma omp parallel for collapse(2)
  for (Index_type i = ib; i < ie; ++i) {
    for (Index_type j = jb; j < je; ++j) {
      for (Index_type k = kb; k < ke; ++k) {
        body(i, j, k);
      }
    }
  }
}

}  // namespace rperf::port
