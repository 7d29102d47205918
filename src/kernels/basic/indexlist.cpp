// INDEXLIST: build a packed list of indices whose data value is negative.
// The parallel variants use an exclusive scan of selection flags — the
// canonical stream-compaction pattern (Scan feature).
//
// INDEXLIST_3LOOP: the same computation restructured into three explicit
// loops (flag, scan, fill), exposing each phase to the programming model.
#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

namespace {

/// Both kernels share data characteristics; roughly half the elements pass.
void fill_traits(rperf::machine::KernelTraits& t, double n, double loops) {
  t.bytes_read = 8.0 * n * loops;
  t.bytes_written = 8.0 * n;  // packed list (Index_type)
  t.flops = 0.0;
  t.working_set_bytes = 16.0 * n;
  t.branches = n;
  t.mispredict_rate = 0.35;  // data-dependent selection
  t.int_ops = 6.0 * n * loops;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.05;
  t.fp_eff_gpu = 0.05;
  t.access_eff_cpu = 0.9;
  t.access_eff_gpu = 0.7;  // scatter on fill
}

}  // namespace

INDEXLIST::INDEXLIST(const RunParams& params)
    : KernelBase("INDEXLIST", GroupID::Basic, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Scan);
  add_all_variants();
  fill_traits(traits_rw(), static_cast<double>(actual_prob_size()), 1.0);
}

void INDEXLIST::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data_ramp(m_a, n, -0.5, 0.5);
  m_list.assign(static_cast<std::size_t>(n), 0);
  m_len = 0;
}

void INDEXLIST::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  Index_type* list = m_list.data();
  Index_type* len = &m_len;

  switch (vid) {
    case VariantID::Base_Seq:
    case VariantID::Lambda_Seq: {
      for (Index_type r = 0; r < run_reps(); ++r) {
        Index_type count = 0;
        for (Index_type i = 0; i < n; ++i) {
          if (x[i] < 0.0) list[count++] = i;
        }
        *len = count;
      }
      break;
    }
    case VariantID::RAJA_Seq:
    case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP:
    case VariantID::RAJA_OpenMP: {
      // Flag + scan + scatter; the scan policy matches the variant.
      std::vector<Index_type> flags(static_cast<std::size_t>(n));
      std::vector<Index_type> positions(static_cast<std::size_t>(n));
      Index_type* f = flags.data();
      Index_type* pos = positions.data();
      const bool omp = suite::is_openmp_variant(vid);
      for (Index_type r = 0; r < run_reps(); ++r) {
        auto flag = [=](Index_type i) { f[i] = x[i] < 0.0 ? 1 : 0; };
        auto scatter = [=](Index_type i) {
          if (f[i] != 0) list[pos[i]] = i;
        };
        if (omp) {
          forall<omp_parallel_for_exec>(RangeSegment(0, n), flag);
          exclusive_scan<omp_parallel_for_exec>(f, pos, n);
          forall<omp_parallel_for_exec>(RangeSegment(0, n), scatter);
        } else {
          forall<seq_exec>(RangeSegment(0, n), flag);
          exclusive_scan<seq_exec>(f, pos, n);
          forall<seq_exec>(RangeSegment(0, n), scatter);
        }
        *len = (n > 0) ? pos[n - 1] + f[n - 1] : 0;
      }
      break;
    }
  }
}

long double INDEXLIST::computeChecksum(VariantID) {
  long double sum = static_cast<long double>(m_len);
  for (Index_type i = 0; i < m_len; ++i) {
    sum += static_cast<long double>(m_list[static_cast<std::size_t>(i)]) *
           static_cast<long double>((i % 7) + 1);
  }
  return sum;
}

void INDEXLIST::tearDown(VariantID) {
  free_data(m_a);
  m_list.clear();
  m_list.shrink_to_fit();
}

INDEXLIST_3LOOP::INDEXLIST_3LOOP(const RunParams& params)
    : KernelBase("INDEXLIST_3LOOP", GroupID::Basic, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Scan);
  add_all_variants();
  fill_traits(traits_rw(), static_cast<double>(actual_prob_size()), 3.0);
}

void INDEXLIST_3LOOP::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data_ramp(m_a, n, -0.5, 0.5);
  m_list.assign(static_cast<std::size_t>(n), 0);
  m_counts.assign(static_cast<std::size_t>(n) + 1, 0);
  m_len = 0;
}

void INDEXLIST_3LOOP::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  Index_type* counts = m_counts.data();
  Index_type* list = m_list.data();
  Index_type* len = &m_len;

  auto flag = [=](Index_type i) { counts[i] = x[i] < 0.0 ? 1 : 0; };
  auto scatter = [=](Index_type i) {
    if (counts[i] != counts[i + 1]) list[counts[i]] = i;
  };

  for (Index_type r = 0; r < run_reps(); ++r) {
    switch (vid) {
      case VariantID::Base_Seq:
      case VariantID::Lambda_Seq: {
        for (Index_type i = 0; i < n; ++i) flag(i);
        Index_type running = 0;
        for (Index_type i = 0; i < n; ++i) {
          const Index_type c = counts[i];
          counts[i] = running;
          running += c;
        }
        counts[n] = running;
        for (Index_type i = 0; i < n; ++i) scatter(i);
        *len = running;
        break;
      }
      case VariantID::RAJA_Seq: {
        forall<seq_exec>(RangeSegment(0, n), flag);
        // In-place exclusive scan over n+1 entries (last holds the total).
        counts[n] = 0;
        exclusive_scan<seq_exec>(counts, counts, n + 1);
        forall<seq_exec>(RangeSegment(0, n), scatter);
        *len = counts[n];
        break;
      }
      case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP:
      case VariantID::RAJA_OpenMP: {
        forall<omp_parallel_for_exec>(RangeSegment(0, n), flag);
        counts[n] = 0;
        exclusive_scan<omp_parallel_for_exec>(counts, counts, n + 1);
        forall<omp_parallel_for_exec>(RangeSegment(0, n), scatter);
        *len = counts[n];
        break;
      }
    }
  }
}

long double INDEXLIST_3LOOP::computeChecksum(VariantID) {
  long double sum = static_cast<long double>(m_len);
  for (Index_type i = 0; i < m_len; ++i) {
    sum += static_cast<long double>(m_list[static_cast<std::size_t>(i)]) *
           static_cast<long double>((i % 7) + 1);
  }
  return sum;
}

void INDEXLIST_3LOOP::tearDown(VariantID) {
  free_data(m_a);
  m_list.clear();
  m_list.shrink_to_fit();
  m_counts.clear();
  m_counts.shrink_to_fit();
}

}  // namespace rperf::kernels::basic
