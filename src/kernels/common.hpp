// Shared declaration and dispatch helpers for suite kernels.
#pragma once

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
/// The five variants correspond to the suite's programming models:
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

/// Sum-reduction analogue of run_forall: body(i, sum) accumulates into a
/// local double; the final value lands in *result once per repetition via
/// `commit(sum)`.
template <typename Body, typename Commit>
void run_sum_reduction(VariantID vid, Index_type begin, Index_type end,
                       Index_type reps, double init, Body&& body,
                       Commit&& commit) {
  using namespace ::rperf::port;
  switch (vid) {
    case VariantID::Base_Seq:
    case VariantID::Lambda_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        double sum = init;
        for (Index_type i = begin; i < end; ++i) {
          body(i, sum);
        }
        commit(sum);
      }
      break;
    }
    case VariantID::RAJA_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        ReduceSum<seq_exec, double> sum(init);
        forall<seq_exec>(RangeSegment(begin, end), [=](Index_type i) {
          double partial = 0.0;
          body(i, partial);
          sum += partial;
        });
        commit(sum.get());
      }
      break;
    }
    case VariantID::Base_OpenMP:
    case VariantID::Lambda_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        double sum = init;
#pragma omp parallel for reduction(+ : sum)
        for (Index_type i = begin; i < end; ++i) {
          body(i, sum);
        }
        commit(sum);
      }
      break;
    }
    case VariantID::RAJA_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        ReduceSum<omp_parallel_for_exec, double> sum(init);
        forall<omp_parallel_for_exec>(
            RangeSegment(begin, end), [=](Index_type i) {
              double partial = 0.0;
              body(i, partial);
              sum += partial;
            });
        commit(sum.get());
      }
      break;
    }
  }
}

}  // namespace rperf::kernels
