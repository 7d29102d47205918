#include "kernels/stream/stream.hpp"

namespace rperf::kernels::stream {

DOT::DOT(const RunParams& params)
    : KernelBase("DOT", GroupID::Stream, params) {
  set_default_size(1000000);
  set_default_reps(20);
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
  t.bytes_read = 16.0 * n;
  t.bytes_written = 0.0;
  t.flops = 2.0 * n;
  t.working_set_bytes = 16.0 * n;
  t.branches = n;
  t.mispredict_rate = 0.0005;
  t.avg_parallelism = n;
  t.access_eff_cpu = 1.0;
  t.access_eff_gpu = 1.0;
  t.fp_eff_cpu = 0.35;
  t.fp_eff_gpu = 0.35;
}

void DOT::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 17u);
  suite::init_data(m_b, n, 29u);
  m_s0 = 0.0;
}

void DOT::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double* a = m_a.data();
  const double* b = m_b.data();
  double* dot = &m_s0;
  run_sum_reduction(
      vid, 0, n, run_reps(),
      [=](Index_type i, double& sum) { sum += a[i] * b[i]; },
      [=](double sum) { *dot = sum; });
}

long double DOT::computeChecksum(VariantID) {
  return static_cast<long double>(m_s0);
}

void DOT::tearDown(VariantID) { free_data(m_a, m_b); }

}  // namespace rperf::kernels::stream
