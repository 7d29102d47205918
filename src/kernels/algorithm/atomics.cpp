// ATOMIC:    atomic-add throughput probe over a small replicated counter
//            set (each iteration hits slot i % 64).
// HISTOGRAM: atomic increments into 100 data-selected bins.
#include "kernels/algorithm/algorithm.hpp"

namespace rperf::kernels::algorithm {

namespace {
constexpr Index_type kReplication = 64;
constexpr int kHistBins = 100;
}  // namespace

ATOMIC::ATOMIC(const RunParams& params)
    : KernelBase("ATOMIC", GroupID::Algorithm, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Atomic);
  add_all_variants();
  add_tuning("single");       // one fully contended counter
  add_tuning("replicate_512");

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 0.0;
  t.bytes_written = 8.0 * kReplication;
  t.flops = 1.0 * n;
  t.working_set_bytes = 8.0 * kReplication;
  t.branches = n;
  t.atomics = n;
  t.atomic_contention_cpu = 1.0;
  t.atomic_contention_gpu = 2.0;  // 64-way replication leaves mild conflicts
  t.int_ops = 4.0 * n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
}

void ATOMIC::setUp(VariantID) {
  suite::init_data_const(m_a, 512, 0.0);  // covers the largest tuning
}

void ATOMIC::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  double* counters = m_a.data();
  const Index_type reps = run_reps();
  // Tuning selects the replication width (contention level).
  const Index_type width = current_tuning() == 1   ? 1
                           : current_tuning() == 2 ? 512
                                                   : kReplication;
  for (Index_type r = 0; r < reps; ++r) {
    for (Index_type s = 0; s < 512; ++s) counters[s] = 0.0;
    run_forall_atomic(vid, 0, n, 1, [=]<typename Atomic>(Index_type i) {
      port::atomicAdd<Atomic>(&counters[i % width], 1.0);
    });
  }
}

long double ATOMIC::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void ATOMIC::tearDown(VariantID) { free_data(m_a); }

HISTOGRAM::HISTOGRAM(const RunParams& params)
    : KernelBase("HISTOGRAM", GroupID::Algorithm, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Atomic);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 4.0 * n;
  t.bytes_written = 8.0 * kHistBins;
  t.flops = 0.0;
  t.working_set_bytes = 4.0 * n;
  t.branches = n;
  t.atomics = n;
  t.atomic_contention_cpu = 1.0;
  t.atomic_contention_gpu = 2.0;  // 100 bins; L2-side atomics absorb most
  t.int_ops = 4.0 * n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
  t.access_eff_gpu = 0.7;
}

void HISTOGRAM::setUp(VariantID) {
  suite::init_int_data(m_ia, actual_prob_size(), 0, kHistBins - 1, 1201u);
  m_hist.assign(kHistBins, 0ull);
}

void HISTOGRAM::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const int* bins = m_ia.data();
  unsigned long long* hist = m_hist.data();
  const Index_type reps = run_reps();
  for (Index_type r = 0; r < reps; ++r) {
    for (int b = 0; b < kHistBins; ++b) hist[b] = 0ull;
    run_forall_atomic(vid, 0, n, 1, [=]<typename Atomic>(Index_type i) {
      port::atomicAdd<Atomic>(&hist[bins[i]], 1ull);
    });
  }
}

long double HISTOGRAM::computeChecksum(VariantID) {
  long double sum = 0.0L;
  for (int b = 0; b < kHistBins; ++b) {
    sum += static_cast<long double>(m_hist[static_cast<std::size_t>(b)]) *
           static_cast<long double>((b % 7) + 1);
  }
  return sum;
}

void HISTOGRAM::tearDown(VariantID) {
  m_ia.clear();
  m_ia.shrink_to_fit();
  m_hist.clear();
  m_hist.shrink_to_fit();
}

}  // namespace rperf::kernels::algorithm
