// MEMCPY:     y[i] = x[i]  (base variants use std::memcpy directly)
// MEMSET:     x[i] = v     (base variants use std::memset semantics)
// REDUCE_SUM: sum of an array
#include <cstring>

#include "kernels/algorithm/algorithm.hpp"

namespace rperf::kernels::algorithm {

MEMCPY::MEMCPY(const RunParams& params)
    : KernelBase("MEMCPY", GroupID::Algorithm, params) {
  set_default_size(1000000);
  set_default_reps(20);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 8.0 * n;
  t.bytes_written = 8.0 * n;
  t.flops = 0.0;
  t.working_set_bytes = 16.0 * n;
  t.branches = n / 8.0;  // wide copy loop
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
}

void MEMCPY::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 1301u);
  suite::init_data_const(m_b, n, 0.0);
}

void MEMCPY::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  double* y = m_b.data();
  if (vid == VariantID::Base_Seq) {
    // The true baseline: libc memcpy.
    for (Index_type r = 0; r < run_reps(); ++r) {
      std::memcpy(y, x, static_cast<std::size_t>(n) * sizeof(double));
    }
    return;
  }
  run_forall(vid, 0, n, run_reps(), [=](Index_type i) { y[i] = x[i]; });
}

long double MEMCPY::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void MEMCPY::tearDown(VariantID) { free_data(m_a, m_b); }

MEMSET::MEMSET(const RunParams& params)
    : KernelBase("MEMSET", GroupID::Algorithm, params) {
  set_default_size(1000000);
  set_default_reps(20);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 0.0;
  t.bytes_written = 8.0 * n;
  t.flops = 0.0;
  t.working_set_bytes = 8.0 * n;
  t.branches = n / 8.0;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.30;
  t.access_eff_cpu = 0.6;  // write-only stream (no read-for-ownership win)
  t.access_eff_gpu = 1.0;
}

void MEMSET::setUp(VariantID) {
  suite::init_data_const(m_a, actual_prob_size(), -1.0);
  m_s0 = 0.5;
}

void MEMSET::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  double* x = m_a.data();
  const double v = m_s0;
  run_forall(vid, 0, n, run_reps(), [=](Index_type i) { x[i] = v; });
}

long double MEMSET::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void MEMSET::tearDown(VariantID) { free_data(m_a); }

REDUCE_SUM::REDUCE_SUM(const RunParams& params)
    : KernelBase("REDUCE_SUM", GroupID::Algorithm, params) {
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
  t.bytes_read = 8.0 * n;
  t.bytes_written = 8.0;
  t.flops = 1.0 * n;
  t.working_set_bytes = 8.0 * n;
  t.branches = n;
  t.avg_parallelism = n;
  // The paper singles REDUCE_SUM out as *not* memory-bandwidth bound on
  // either CPU: the serial dependent-add chain limits a single rank.
  t.fp_eff_cpu = 0.04;
  t.fp_eff_gpu = 0.30;
  t.access_eff_cpu = 0.6;
}

void REDUCE_SUM::setUp(VariantID) {
  suite::init_data(m_a, actual_prob_size(), 1307u);
  m_s0 = 0.0;
}

void REDUCE_SUM::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  double* out = &m_s0;
  run_sum_reduction(
      vid, 0, n, run_reps(),
      [=](Index_type i, double& sum) { sum += x[i]; },
      [=](double sum) { *out = sum; });
}

long double REDUCE_SUM::computeChecksum(VariantID) {
  return static_cast<long double>(m_s0);
}

void REDUCE_SUM::tearDown(VariantID) { free_data(m_a); }

}  // namespace rperf::kernels::algorithm
