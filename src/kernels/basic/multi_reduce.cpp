// MULTI_REDUCE: accumulate values into a runtime number of bins selected by
// a data-dependent index — a multi-target reduction with moderate atomic
// contention.
#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

namespace {
constexpr Index_type kNumBins = 10;
}

MULTI_REDUCE::MULTI_REDUCE(const RunParams& params)
    : KernelBase("MULTI_REDUCE", GroupID::Basic, params) {
  set_default_size(350000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Reduction);
  add_feature(FeatureID::Atomic);
  // Double atomics into shared addresses land in arrival order.
  set_checksum_order(ChecksumOrder::Unordered,
                     {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP,
                      VariantID::RAJA_OpenMP});
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 12.0 * n;  // value + bin index
  t.bytes_written = 8.0 * kNumBins;
  t.flops = 1.0 * n;
  t.working_set_bytes = 12.0 * n;
  t.branches = n;
  t.atomics = n;
  t.atomic_contention_cpu = 1.0;  // per-rank private bins in paper config
  t.atomic_contention_gpu = 4.0;  // many threads share few bins
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.10;
  t.fp_eff_gpu = 0.10;
  t.access_eff_gpu = 0.8;
}

void MULTI_REDUCE::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 421u);
  suite::init_int_data(m_ia, n, 0, static_cast<int>(kNumBins) - 1, 431u);
  suite::init_data_const(m_b, kNumBins, 0.0);
}

void MULTI_REDUCE::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  const int* bin = m_ia.data();
  double* values = m_b.data();

  auto zero_bins = [=](Index_type b) { values[b] = 0.0; };
  auto accumulate = [=](Index_type i) {
    atomicAdd(&values[bin[i]], x[i]);
  };

  for (Index_type r = 0; r < run_reps(); ++r) {
    switch (vid) {
      case VariantID::Base_Seq:
      case VariantID::Lambda_Seq: {
        for (Index_type b = 0; b < kNumBins; ++b) values[b] = 0.0;
        for (Index_type i = 0; i < n; ++i) values[bin[i]] += x[i];
        break;
      }
      case VariantID::RAJA_Seq:
        forall<seq_exec>(RangeSegment(0, kNumBins), zero_bins);
        forall<seq_exec>(RangeSegment(0, n), accumulate);
        break;
      case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP: {
        for (Index_type b = 0; b < kNumBins; ++b) values[b] = 0.0;
#pragma omp parallel for
        for (Index_type i = 0; i < n; ++i) {
          atomicAdd(&values[bin[i]], x[i]);
        }
        break;
      }
      case VariantID::RAJA_OpenMP:
        forall<seq_exec>(RangeSegment(0, kNumBins), zero_bins);
        forall<omp_parallel_for_exec>(RangeSegment(0, n), accumulate);
        break;
    }
  }
}

long double MULTI_REDUCE::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void MULTI_REDUCE::tearDown(VariantID) {
  free_data(m_a, m_b);
  m_ia.clear();
  m_ia.shrink_to_fit();
}

}  // namespace rperf::kernels::basic
