// DAXPY:        y[i] += a * x[i]
// DAXPY_ATOMIC: atomicAdd(&y[i], a * x[i])   (uncontended atomics)
#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

DAXPY::DAXPY(const RunParams& params)
    : KernelBase("DAXPY", GroupID::Basic, params) {
  set_default_size(1000000);
  set_default_reps(20);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 16.0 * n;
  t.bytes_written = 8.0 * n;
  t.flops = 2.0 * n;
  t.working_set_bytes = 16.0 * n;
  t.branches = n;
  t.mispredict_rate = 0.0005;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.35;
  t.fp_eff_gpu = 0.35;
}

void DAXPY::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 41u);  // x
  suite::init_data(m_b, n, 43u);  // y
  m_s0 = 2.5;
}

void DAXPY::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double a = m_s0;
  const double* x = m_a.data();
  double* y = m_b.data();
  run_forall(vid, 0, n, run_reps(), [=](Index_type i) { y[i] += a * x[i]; });
}

long double DAXPY::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void DAXPY::tearDown(VariantID) { free_data(m_a, m_b); }

DAXPY_ATOMIC::DAXPY_ATOMIC(const RunParams& params)
    : KernelBase("DAXPY_ATOMIC", GroupID::Basic, params) {
  set_default_size(1000000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Atomic);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 16.0 * n;
  t.bytes_written = 8.0 * n;
  t.flops = 2.0 * n;
  t.working_set_bytes = 16.0 * n;
  t.branches = n;
  t.atomics = n;                 // one RMW per element, distinct addresses
  t.atomic_contention_cpu = 1.0;
  t.atomic_contention_gpu = 1.0;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.30;
  t.fp_eff_gpu = 0.30;
}

void DAXPY_ATOMIC::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 47u);
  suite::init_data(m_b, n, 53u);
  m_s0 = 2.5;
}

void DAXPY_ATOMIC::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double a = m_s0;
  const double* x = m_a.data();
  double* y = m_b.data();
  run_forall_atomic(vid, 0, n, run_reps(),
                    [=]<typename Atomic>(Index_type i) {
                      port::atomicAdd<Atomic>(&y[i], a * x[i]);
                    });
}

long double DAXPY_ATOMIC::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void DAXPY_ATOMIC::tearDown(VariantID) { free_data(m_a, m_b); }

}  // namespace rperf::kernels::basic
