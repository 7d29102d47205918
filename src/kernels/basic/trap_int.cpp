// TRAP_INT: trapezoidal integration of a smooth function — FLOP-dense
// reduction (one of the paper's 17 FLOP-heavy kernels).
#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

namespace {

/// Integrand used by RAJAPerf's TRAP_INT.
inline double trap_fn(double x, double y, double xp, double yp) {
  const double denom = (x - xp) * (x - xp) + (y - yp) * (y - yp);
  return 1.0 / (denom * denom + 0.1);
}

}  // namespace

TRAP_INT::TRAP_INT(const RunParams& params)
    : KernelBase("TRAP_INT", GroupID::Basic, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Reduction);
  // `omp reduction` combines its partials in an unspecified order;
  // RAJA_OpenMP stays exact, as forall_reduce folds fixed blocks in order.
  set_checksum_order(ChecksumOrder::Unordered,
                     {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP});
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 0.0;
  t.bytes_written = 8.0;
  t.flops = 12.0 * n;  // polynomial + divide per point
  t.working_set_bytes = 64.0;
  t.branches = n;
  t.int_ops = 14.0 * n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.22;
  t.fp_eff_gpu = 0.55;
}

void TRAP_INT::setUp(VariantID) {
  m_s0 = 0.0;  // result
  m_s1 = 1.0 / static_cast<double>(actual_prob_size());  // h
}

void TRAP_INT::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double h = m_s1;
  const double x0 = 0.1, xp = 0.5, y = 0.3, yp = 0.75;
  double* out = &m_s0;
  run_sum_reduction(
      vid, 0, n, run_reps(),
      [=](Index_type i, double& sum) {
        const double x = x0 + (static_cast<double>(i) + 0.5) * h;
        sum += trap_fn(x, y, xp, yp);
      },
      [=](double sum) { *out = sum * h; });
}

long double TRAP_INT::computeChecksum(VariantID) {
  return static_cast<long double>(m_s0) * 1.0e3L;
}

void TRAP_INT::tearDown(VariantID) {}

}  // namespace rperf::kernels::basic
