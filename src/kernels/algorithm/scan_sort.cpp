// SCAN:      exclusive prefix sum of a double array
// SORT:      ascending sort (O(n lg n))
// SORTPAIRS: stable key-value sort (O(n lg n))
#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/algorithm/algorithm.hpp"

namespace rperf::kernels::algorithm {

SCAN::SCAN(const RunParams& params)
    : KernelBase("SCAN", GroupID::Algorithm, params) {
  set_default_size(1000000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Scan);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 2.0 * n;  // two-phase parallel scan re-reads
  t.bytes_written = 8.0 * n;
  t.flops = 2.0 * n;
  t.working_set_bytes = 16.0 * n;
  t.branches = n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.08;  // dependent-add chain per block
  t.fp_eff_gpu = 0.30;
  t.access_eff_cpu = 1.0;
  t.access_eff_gpu = 1.0;
}

void SCAN::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 1409u);
  suite::init_data_const(m_b, n, 0.0);
}

void SCAN::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  double* y = m_b.data();
  for (Index_type r = 0; r < run_reps(); ++r) {
    switch (vid) {
      case VariantID::Base_Seq:
      case VariantID::Lambda_Seq:
        std::exclusive_scan(x, x + n, y, 0.0);
        break;
      case VariantID::RAJA_Seq:
        exclusive_scan<seq_exec>(x, y, n, 0.0);
        break;
      case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP:
      case VariantID::RAJA_OpenMP:
        exclusive_scan<omp_parallel_for_exec>(x, y, n, 0.0);
        break;
    }
  }
}

long double SCAN::computeChecksum(VariantID) {
  // Floating-point scan is reassociated by the parallel algorithm; compare
  // a rounded aggregate.
  return suite::calc_checksum(m_b);
}

void SCAN::tearDown(VariantID) { free_data(m_a, m_b); }

SORT::SORT(const RunParams& params)
    : KernelBase("SORT", GroupID::Algorithm, params) {
  set_default_size(200000);
  set_default_reps(5);
  set_complexity(Complexity::N_log_N);
  add_feature(FeatureID::Sort);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  const double lg = std::max(1.0, std::log2(n));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * n * lg;
  t.bytes_written = 8.0 * n * lg;
  t.flops = 0.0;
  t.working_set_bytes = 16.0 * n;
  t.branches = n * lg;
  t.mispredict_rate = 0.3;  // comparison sort
  t.int_ops = 4.0 * n * lg;
  t.avg_parallelism = n / 64.0;  // merge tree limits
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
  t.access_eff_cpu = 0.5;
  t.access_eff_gpu = 0.4;
}

void SORT::setUp(VariantID) {
  suite::init_data(m_a, actual_prob_size(), 1423u);
}

void SORT::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type n = actual_prob_size();
  // Sort scrambled copies so every repetition does full work.
  for (Index_type r = 0; r < run_reps(); ++r) {
    suite::Real_vec work = m_a;
    switch (vid) {
      case VariantID::Base_Seq:
      case VariantID::Lambda_Seq:
        std::sort(work.begin(), work.end());
        break;
      case VariantID::RAJA_Seq:
        sort<seq_exec>(work.data(), n);
        break;
      case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP:
      case VariantID::RAJA_OpenMP:
        sort<omp_parallel_for_exec>(work.data(), n);
        break;
    }
    if (r + 1 == run_reps()) m_a = std::move(work);
  }
}

long double SORT::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void SORT::tearDown(VariantID) { free_data(m_a); }

SORTPAIRS::SORTPAIRS(const RunParams& params)
    : KernelBase("SORTPAIRS", GroupID::Algorithm, params) {
  set_default_size(200000);
  set_default_reps(5);
  set_complexity(Complexity::N_log_N);
  add_feature(FeatureID::Sort);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  const double lg = std::max(1.0, std::log2(n));
  auto& t = traits_rw();
  t.bytes_read = 16.0 * n * lg;
  t.bytes_written = 16.0 * n * lg;
  t.flops = 0.0;
  t.working_set_bytes = 32.0 * n;
  t.branches = n * lg;
  t.mispredict_rate = 0.3;
  t.int_ops = 6.0 * n * lg;
  t.avg_parallelism = n / 64.0;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
  t.access_eff_cpu = 0.45;
  t.access_eff_gpu = 0.35;
}

void SORTPAIRS::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 1427u);  // keys
  suite::init_data(m_b, n, 1429u);  // values
}

void SORTPAIRS::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type n = actual_prob_size();
  for (Index_type r = 0; r < run_reps(); ++r) {
    suite::Real_vec keys = m_a;
    suite::Real_vec values = m_b;
    switch (vid) {
      case VariantID::Base_Seq:
      case VariantID::Lambda_Seq: {
        std::vector<Index_type> order(static_cast<std::size_t>(n));
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](Index_type a, Index_type b) {
                           return keys[static_cast<std::size_t>(a)] <
                                  keys[static_cast<std::size_t>(b)];
                         });
        suite::Real_vec k2(static_cast<std::size_t>(n)),
            v2(static_cast<std::size_t>(n));
        for (Index_type i = 0; i < n; ++i) {
          k2[static_cast<std::size_t>(i)] =
              keys[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
          v2[static_cast<std::size_t>(i)] =
              values[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
        }
        keys = std::move(k2);
        values = std::move(v2);
        break;
      }
      case VariantID::RAJA_Seq:
        sort_pairs<seq_exec>(keys.data(), values.data(), n);
        break;
      case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP:
      case VariantID::RAJA_OpenMP:
        sort_pairs<omp_parallel_for_exec>(keys.data(), values.data(), n);
        break;
    }
    if (r + 1 == run_reps()) {
      m_a = std::move(keys);
      m_b = std::move(values);
    }
  }
}

long double SORTPAIRS::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a) + suite::calc_checksum(m_b);
}

void SORTPAIRS::tearDown(VariantID) { free_data(m_a, m_b); }

}  // namespace rperf::kernels::algorithm
