// Shared declaration and dispatch helpers for suite kernels.
#pragma once

#include <functional>
#include <vector>

#include "port/port.hpp"
#include "suite/data_utils.hpp"
#include "suite/kernel_base.hpp"
#include "suite/types.hpp"

namespace rperf::kernels {

using port::Index_type;
using port::RangeSegment;
using suite::GroupID;
using suite::ChecksumOrder;
using suite::Complexity;
using suite::FeatureID;
using suite::RunParams;
using suite::VariantID;

/// Declares a kernel class with the standard member block (five double
/// arrays, two int arrays, two scalars) plus any extra members passed as
/// trailing arguments. Working sets are pool-backed (suite::Real_vec /
/// suite::Int_vec): 64-byte aligned, recycled across cells, and default-
/// initialized on resize since setUp always overwrites them.
#define RPERF_DECLARE_KERNEL(Name, ...)                                  \
  class Name : public ::rperf::suite::KernelBase {                       \
   public:                                                               \
    explicit Name(const ::rperf::suite::RunParams& params);              \
                                                                         \
   protected:                                                            \
    void setUp(::rperf::suite::VariantID vid) override;                  \
    void runVariant(::rperf::suite::VariantID vid) override;             \
    long double computeChecksum(::rperf::suite::VariantID vid) override; \
    void tearDown(::rperf::suite::VariantID vid) override;               \
                                                                         \
   private:                                                              \
    ::rperf::suite::Real_vec m_a, m_b, m_c, m_d, m_e;                    \
    ::rperf::suite::Int_vec m_ia, m_ib;                                  \
    double m_s0 = 0.0, m_s1 = 0.0;                                       \
    __VA_ARGS__                                                          \
  }

/// Release a pack of vectors (capacity included).
template <typename... Vecs>
void free_data(Vecs&... vecs) {
  ((vecs.clear(), vecs.shrink_to_fit()), ...);
}

/// Execute `reps` repetitions of a 1-D loop over [begin, end) under the
/// given variant. `body` must capture raw pointers by value (the standard
/// kernel idiom); it is invoked as body(i).
///
/// The six variants correspond to the suite's programming models:
///   Base_Seq     — plain sequential for loop
///   Lambda_Seq   — sequential loop through an extra lambda indirection
///   RAJA_Seq     — portability layer, sequential policy
///   Base_OpenMP  — plain `#pragma omp parallel for`
///   Lambda_OpenMP — OpenMP loop through an extra lambda indirection
///   RAJA_OpenMP  — portability layer, OpenMP policy
template <typename Body>
void run_forall(VariantID vid, Index_type begin, Index_type end,
                Index_type reps, Body&& body) {
  using namespace ::rperf::port;
  switch (vid) {
    case VariantID::Base_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        for (Index_type i = begin; i < end; ++i) {
          body(i);
        }
      }
      break;
    }
    case VariantID::Lambda_Seq: {
      auto lam = [body](Index_type i) { body(i); };
      for (Index_type r = 0; r < reps; ++r) {
        for (Index_type i = begin; i < end; ++i) {
          lam(i);
        }
      }
      break;
    }
    case VariantID::RAJA_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        forall<seq_exec>(RangeSegment(begin, end), body);
      }
      break;
    }
    case VariantID::Base_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
#pragma omp parallel for
        for (Index_type i = begin; i < end; ++i) {
          body(i);
        }
      }
      break;
    }
    case VariantID::Lambda_OpenMP: {
      auto lam = [body](Index_type i) { body(i); };
      for (Index_type r = 0; r < reps; ++r) {
#pragma omp parallel for
        for (Index_type i = begin; i < end; ++i) {
          lam(i);
        }
      }
      break;
    }
    case VariantID::RAJA_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        forall<omp_parallel_for_exec>(RangeSegment(begin, end), body);
      }
      break;
    }
  }
}

/// run_forall for a body that adds into shared memory through
/// port::atomicAdd. `body` is a template lambda, `[=]<typename Atomic>(
/// Index_type i)`, called with the variant's atomic policy: seq_atomic (a
/// plain add) for the three Seq variants, omp_atomic for the three OpenMP
/// ones.
template <typename Body>
void run_forall_atomic(VariantID vid, Index_type begin, Index_type end,
                       Index_type reps, const Body& body) {
  if (suite::is_openmp_variant(vid)) {
    run_forall(vid, begin, end, reps, [=](Index_type i) {
      body.template operator()<port::omp_atomic>(i);
    });
  } else {
    run_forall(vid, begin, end, reps, [=](Index_type i) {
      body.template operator()<port::seq_atomic>(i);
    });
  }
}

/// 2-D sibling of run_forall: `reps` repetitions of the nest i over `si`,
/// j over `sj` (j innermost), invoking body(i, j). The variants mean what
/// they mean in run_forall: Base runs the raw nest, Lambda the same nest
/// through one more lambda, RAJA calls port::forall_2d; the OpenMP forms
/// collapse(2) the nest.
template <typename Body>
void run_forall_2d(VariantID vid, const RangeSegment& si,
                   const RangeSegment& sj, Index_type reps, Body&& body) {
  using namespace ::rperf::port;
  const Index_type ib = si.begin(), ie = si.end();
  const Index_type jb = sj.begin(), je = sj.end();
  auto lam = [body](Index_type i, Index_type j) { body(i, j); };
  auto nest = [&](auto&& f) {
    for (Index_type i = ib; i < ie; ++i)
      for (Index_type j = jb; j < je; ++j) f(i, j);
  };
  auto omp_nest = [&](auto&& f) {
#pragma omp parallel for collapse(2)
    for (Index_type i = ib; i < ie; ++i)
      for (Index_type j = jb; j < je; ++j) f(i, j);
  };
  for (Index_type r = 0; r < reps; ++r) {
    switch (vid) {
      case VariantID::Base_Seq: nest(body); break;
      case VariantID::Lambda_Seq: nest(lam); break;
      case VariantID::RAJA_Seq: forall_2d<seq_exec>(si, sj, body); break;
      case VariantID::Base_OpenMP: omp_nest(body); break;
      case VariantID::Lambda_OpenMP: omp_nest(lam); break;
      case VariantID::RAJA_OpenMP:
        forall_2d<omp_parallel_for_exec>(si, sj, body);
        break;
    }
  }
}

/// 3-D sibling of run_forall: the nest i, j, k over `si`, `sj`, `sk` (k
/// innermost), invoking body(i, j, k), with the variants of run_forall_2d.
template <typename Body>
void run_forall_3d(VariantID vid, const RangeSegment& si,
                   const RangeSegment& sj, const RangeSegment& sk,
                   Index_type reps, Body&& body) {
  using namespace ::rperf::port;
  const Index_type ib = si.begin(), ie = si.end();
  const Index_type jb = sj.begin(), je = sj.end();
  const Index_type kb = sk.begin(), ke = sk.end();
  auto lam = [body](Index_type i, Index_type j, Index_type k) {
    body(i, j, k);
  };
  auto nest = [&](auto&& f) {
    for (Index_type i = ib; i < ie; ++i)
      for (Index_type j = jb; j < je; ++j)
        for (Index_type k = kb; k < ke; ++k) f(i, j, k);
  };
  auto omp_nest = [&](auto&& f) {
#pragma omp parallel for collapse(2)
    for (Index_type i = ib; i < ie; ++i)
      for (Index_type j = jb; j < je; ++j)
        for (Index_type k = kb; k < ke; ++k) f(i, j, k);
  };
  for (Index_type r = 0; r < reps; ++r) {
    switch (vid) {
      case VariantID::Base_Seq: nest(body); break;
      case VariantID::Lambda_Seq: nest(lam); break;
      case VariantID::RAJA_Seq: forall_3d<seq_exec>(si, sj, sk, body); break;
      case VariantID::Base_OpenMP: omp_nest(body); break;
      case VariantID::Lambda_OpenMP: omp_nest(lam); break;
      case VariantID::RAJA_OpenMP:
        forall_3d<omp_parallel_for_exec>(si, sj, sk, body);
        break;
    }
  }
}

/// The RAJA arms of a reduction: `reps` repetitions of port::forall_reduce
/// over [begin, end) under the variant's policy (seq_exec for RAJA_Seq,
/// omp_parallel_for_exec for RAJA_OpenMP), each result handed to
/// commit(acc). Both policies give the same bits (port/reduce.hpp).
template <typename Acc, typename Combine, typename Body, typename Commit>
void run_forall_reduce(VariantID vid, Index_type begin, Index_type end,
                       Index_type reps, Acc identity, Combine combine,
                       const Body& body, Commit&& commit) {
  using namespace ::rperf::port;
  const RangeSegment seg(begin, end);
  for (Index_type r = 0; r < reps; ++r) {
    commit(suite::is_openmp_variant(vid)
               ? forall_reduce<omp_parallel_for_exec>(seg, identity, combine,
                                                      body)
               : forall_reduce<seq_exec>(seg, identity, combine, body));
  }
}

/// Sum-reduction analogue of run_forall: body(i, sum) accumulates into a
/// double that starts at 0; the total lands via `commit(sum)` once per
/// repetition. Base and Lambda keep the plain loop and `omp reduction` (the
/// programming model used directly); RAJA calls run_forall_reduce.
template <typename Body, typename Commit>
void run_sum_reduction(VariantID vid, Index_type begin, Index_type end,
                       Index_type reps, Body&& body, Commit&& commit) {
  switch (vid) {
    case VariantID::Base_Seq:
    case VariantID::Lambda_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        double sum = 0.0;
        for (Index_type i = begin; i < end; ++i) {
          body(i, sum);
        }
        commit(sum);
      }
      break;
    }
    case VariantID::Base_OpenMP:
    case VariantID::Lambda_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        double sum = 0.0;
#pragma omp parallel for reduction(+ : sum)
        for (Index_type i = begin; i < end; ++i) {
          body(i, sum);
        }
        commit(sum);
      }
      break;
    }
    case VariantID::RAJA_Seq:
    case VariantID::RAJA_OpenMP:
      run_forall_reduce(vid, begin, end, reps, 0.0, std::plus<>{}, body,
                        commit);
      break;
  }
}

}  // namespace rperf::kernels
