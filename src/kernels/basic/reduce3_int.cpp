// REDUCE3_INT: simultaneous sum, min, and max of an integer array — three
// reductions fused in one loop.
#include <algorithm>
#include <limits>

#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

REDUCE3_INT::REDUCE3_INT(const RunParams& params)
    : KernelBase("REDUCE3_INT", GroupID::Basic, params) {
  set_default_size(1000000);
  set_default_reps(20);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Reduction);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 4.0 * n;
  t.bytes_written = 0.0;
  t.flops = 0.0;
  t.working_set_bytes = 4.0 * n;
  t.branches = 3.0 * n;  // min/max comparisons
  t.mispredict_rate = 0.002;  // min/max compile to branchless selects
  t.int_ops = 5.0 * n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
}

void REDUCE3_INT::setUp(VariantID) {
  suite::init_int_data(m_ia, actual_prob_size(), -1000, 1000, 443u);
  m_isum = 0;
  m_imin = 0;
  m_imax = 0;
}

void REDUCE3_INT::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const int* x = m_ia.data();
  const Index_type reps = run_reps();

  switch (vid) {
    case VariantID::Base_Seq:
    case VariantID::Lambda_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        long long s = 0;
        int mn = x[0], mx = x[0];
        for (Index_type i = 0; i < n; ++i) {
          s += x[i];
          mn = std::min(mn, x[i]);
          mx = std::max(mx, x[i]);
        }
        m_isum = s;
        m_imin = mn;
        m_imax = mx;
      }
      break;
    }
    case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        long long s = 0;
        int mn = x[0], mx = x[0];
#pragma omp parallel for reduction(+ : s) reduction(min : mn) \
    reduction(max : mx)
        for (Index_type i = 0; i < n; ++i) {
          s += x[i];
          mn = std::min(mn, x[i]);
          mx = std::max(mx, x[i]);
        }
        m_isum = s;
        m_imin = mn;
        m_imax = mx;
      }
      break;
    }
    case VariantID::RAJA_Seq:
    case VariantID::RAJA_OpenMP: {
      struct SumMinMax {
        long long sum;
        int min, max;
      };
      run_forall_reduce(
          vid, 0, n, reps,
          SumMinMax{0, std::numeric_limits<int>::max(),
                    std::numeric_limits<int>::lowest()},
          [](const SumMinMax& a, const SumMinMax& b) {
            return SumMinMax{a.sum + b.sum, std::min(a.min, b.min),
                             std::max(a.max, b.max)};
          },
          [=](Index_type i, SumMinMax& acc) {
            acc.sum += x[i];
            acc.min = std::min(acc.min, x[i]);
            acc.max = std::max(acc.max, x[i]);
          },
          [this](const SumMinMax& acc) {
            m_isum = acc.sum;
            m_imin = acc.min;
            m_imax = acc.max;
          });
      break;
    }
  }
}

long double REDUCE3_INT::computeChecksum(VariantID) {
  return static_cast<long double>(m_isum) +
         1000.0L * static_cast<long double>(m_imin) +
         1000000.0L * static_cast<long double>(m_imax);
}

void REDUCE3_INT::tearDown(VariantID) {
  m_ia.clear();
  m_ia.shrink_to_fit();
}

}  // namespace rperf::kernels::basic
