// NESTED_INIT: array(i,j,k) = i * j * k over a 3-D box — a triply nested
// initialization whose only "bottleneck" is instruction retirement; the
// paper highlights it as a kernel that gains on GPUs purely from
// parallelism.
#include <cmath>

#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

NESTED_INIT::NESTED_INIT(const RunParams& params)
    : KernelBase("NESTED_INIT", GroupID::Basic, params) {
  set_default_size(1000000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_all_variants();

  m_nk = static_cast<Index_type>(
      std::cbrt(static_cast<double>(actual_prob_size())));
  if (m_nk < 1) m_nk = 1;
  m_nj = m_nk;
  m_ni = std::max<Index_type>(
      1, actual_prob_size() / std::max<Index_type>(1, m_nj * m_nk));

  const double total = static_cast<double>(m_ni * m_nj * m_nk);
  auto& t = traits_rw();
  t.bytes_read = 0.0;
  t.bytes_written = 8.0 * total;
  t.flops = 2.0 * total;  // two integer-to-double multiplies
  t.working_set_bytes = 8.0 * total;
  t.branches = total * 1.1;  // nested loop control
  t.int_ops = 6.0 * total;
  t.avg_parallelism = total;
  t.fp_eff_cpu = 0.12;
  t.fp_eff_gpu = 0.35;
  t.access_eff_cpu = 0.65;  // write-only stream
  t.access_eff_gpu = 0.9;
}

void NESTED_INIT::setUp(VariantID) {
  suite::init_data_const(m_a, m_ni * m_nj * m_nk, 0.0);
}

void NESTED_INIT::runVariant(VariantID vid) {
  const Index_type ni = m_ni, nj = m_nj, nk = m_nk;
  double* array = m_a.data();

  auto body = [=](Index_type i, Index_type j, Index_type k) {
    array[(i * nj + j) * nk + k] =
        static_cast<double>(i) * static_cast<double>(j) *
        static_cast<double>(k);
  };

  run_forall_3d(vid, RangeSegment(0, ni), RangeSegment(0, nj),
                RangeSegment(0, nk), run_reps(), body);
}

long double NESTED_INIT::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void NESTED_INIT::tearDown(VariantID) { free_data(m_a); }

}  // namespace rperf::kernels::basic
