// PI_ATOMIC: compute pi by midpoint quadrature of 4/(1+x^2), accumulating
//            into a single location with atomics — a worst-case contended
//            atomic (the paper's canonical no-GPU-speedup kernel).
// PI_REDUCE: the same quadrature through a proper reduction.
#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

PI_ATOMIC::PI_ATOMIC(const RunParams& params)
    : KernelBase("PI_ATOMIC", GroupID::Basic, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Atomic);
  // Double atomics into shared addresses land in arrival order.
  set_checksum_order(ChecksumOrder::Unordered,
                     {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP,
                      VariantID::RAJA_OpenMP});
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 0.0;
  t.bytes_written = 8.0;
  t.flops = 5.0 * n;  // mul, fma, div, add
  t.working_set_bytes = 64.0;
  t.branches = n;
  t.atomics = n;
  t.atomic_contention_cpu = 1.0;   // one rank per core, private accumulator
  t.atomic_contention_gpu = 64.0;  // all device threads share one address
  t.int_ops = 22.0 * n;            // division is microcoded
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.04;  // serial dependent divide chain
  t.fp_eff_gpu = 0.05;
}

void PI_ATOMIC::setUp(VariantID) {
  m_s0 = 1.0 / static_cast<double>(actual_prob_size());  // dx
  m_s1 = 0.0;                                            // pi
}

void PI_ATOMIC::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double dx = m_s0;
  double* pi = &m_s1;
  // Each repetition recomputes pi from zero.
  const Index_type reps = run_reps();
  for (Index_type r = 0; r < reps; ++r) {
    *pi = 0.0;
    run_forall_atomic(vid, 0, n, 1, [=]<typename Atomic>(Index_type i) {
      const double x = (static_cast<double>(i) + 0.5) * dx;
      port::atomicAdd<Atomic>(pi, dx / (1.0 + x * x));
    });
    *pi *= 4.0;
  }
}

long double PI_ATOMIC::computeChecksum(VariantID) {
  return static_cast<long double>(m_s1);
}

void PI_ATOMIC::tearDown(VariantID) {}

PI_REDUCE::PI_REDUCE(const RunParams& params)
    : KernelBase("PI_REDUCE", GroupID::Basic, params) {
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
  t.flops = 5.0 * n;
  t.working_set_bytes = 64.0;
  t.branches = n;
  t.int_ops = 20.0 * n;  // division latency
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.12;
  t.fp_eff_gpu = 0.30;  // GPU hides divide latency across warps
}

void PI_REDUCE::setUp(VariantID) {
  m_s0 = 1.0 / static_cast<double>(actual_prob_size());
  m_s1 = 0.0;
}

void PI_REDUCE::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double dx = m_s0;
  double* out = &m_s1;
  run_sum_reduction(
      vid, 0, n, run_reps(),
      [=](Index_type i, double& sum) {
        const double x = (static_cast<double>(i) + 0.5) * dx;
        sum += dx / (1.0 + x * x);
      },
      [=](double sum) { *out = 4.0 * sum; });
}

long double PI_REDUCE::computeChecksum(VariantID) {
  return static_cast<long double>(m_s1);
}

void PI_REDUCE::tearDown(VariantID) {}

}  // namespace rperf::kernels::basic
