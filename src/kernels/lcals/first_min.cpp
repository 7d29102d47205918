// FIRST_MIN: find the first (smallest-index) minimum of an array — a
// min-with-location reduction. The paper splits its CPU bottleneck roughly
// half retiring, half frontend bound.
#include <limits>

#include "kernels/lcals/lcals.hpp"

namespace rperf::kernels::lcals {

FIRST_MIN::FIRST_MIN(const RunParams& params)
    : KernelBase("FIRST_MIN", GroupID::Lcals, params) {
  set_default_size(1000000);
  set_default_reps(20);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Reduction);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 8.0 * n;
  t.bytes_written = 0.0;
  t.flops = 0.0;
  t.working_set_bytes = 8.0 * n;
  t.branches = 2.0 * n;
  t.mispredict_rate = 0.02;
  t.int_ops = 6.0 * n;  // compare + conditional index tracking
  t.avg_parallelism = n;
  t.vector_fraction = 0.2;  // scalar compare-and-track loop
  t.code_complexity = 1.8;  // branchy minloc codegen; frontend pressure
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.25;
  t.access_eff_cpu = 0.55;  // value+index tracking halves streaming rate
}

void FIRST_MIN::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 653u);
  m_a[static_cast<std::size_t>(n / 2)] = -1.0;  // unique interior minimum
  m_s0 = 0.0;
  m_loc = -1;
}

void FIRST_MIN::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  const Index_type reps = run_reps();

  switch (vid) {
    case VariantID::Base_Seq:
    case VariantID::Lambda_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        double mn = x[0];
        Index_type loc = 0;
        for (Index_type i = 1; i < n; ++i) {
          if (x[i] < mn) {
            mn = x[i];
            loc = i;
          }
        }
        m_s0 = mn;
        m_loc = loc;
      }
      break;
    }
    case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        double mn = x[0];
        Index_type loc = 0;
#pragma omp parallel
        {
          double lmn = x[0];
          Index_type lloc = 0;
#pragma omp for nowait
          for (Index_type i = 1; i < n; ++i) {
            if (x[i] < lmn) {
              lmn = x[i];
              lloc = i;
            }
          }
#pragma omp critical
          {
            if (lmn < mn || (lmn == mn && lloc < loc)) {
              mn = lmn;
              loc = lloc;
            }
          }
        }
        m_s0 = mn;
        m_loc = loc;
      }
      break;
    }
    case VariantID::RAJA_Seq:
    case VariantID::RAJA_OpenMP: {
      struct MinLoc {
        double val;
        Index_type loc;
      };
      // Blocks fold in index order and a later block wins only when
      // strictly smaller, so a tie keeps the smallest index.
      run_forall_reduce(
          vid, 0, n, reps, MinLoc{std::numeric_limits<double>::max(), -1},
          [](const MinLoc& a, const MinLoc& b) {
            return b.val < a.val ? b : a;
          },
          [=](Index_type i, MinLoc& acc) {
            if (x[i] < acc.val) {
              acc.val = x[i];
              acc.loc = i;
            }
          },
          [this](const MinLoc& acc) {
            m_s0 = acc.val;
            m_loc = acc.loc;
          });
      break;
    }
  }
}

long double FIRST_MIN::computeChecksum(VariantID) {
  return static_cast<long double>(m_s0) +
         static_cast<long double>(m_loc) * 1.0e-3L;
}

void FIRST_MIN::tearDown(VariantID) { free_data(m_a); }

}  // namespace rperf::kernels::lcals
