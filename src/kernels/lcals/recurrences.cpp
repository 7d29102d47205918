// GEN_LIN_RECUR: general linear recurrence solved along independent bands —
//                parallel across bands, strictly sequential within a band
//                (limited parallelism: the GPU cannot saturate).
// TRIDIAG_ELIM:  tridiagonal forward elimination in Jacobi form
//                (separate in/out arrays keep iterations independent,
//                exactly as RAJAPerf formulates it).
#include "kernels/lcals/lcals.hpp"

namespace rperf::kernels::lcals {

GEN_LIN_RECUR::GEN_LIN_RECUR(const RunParams& params)
    : KernelBase("GEN_LIN_RECUR", GroupID::Lcals, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();

  m_band_len = 16;
  m_nbands = std::max<Index_type>(1, actual_prob_size() / m_band_len);

  const double n = static_cast<double>(m_nbands * m_band_len);
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 2.0 * n;
  t.bytes_written = 8.0 * n;
  t.flops = 4.0 * n;
  t.working_set_bytes = 8.0 * 3.0 * n;
  t.branches = n;
  t.avg_parallelism = static_cast<double>(m_nbands);  // bands only
  t.fp_eff_cpu = 0.25;  // short serial chain per band, parallel across
  t.fp_eff_gpu = 0.25;
  t.access_eff_gpu = 0.8;
}

void GEN_LIN_RECUR::setUp(VariantID) {
  const Index_type n = m_nbands * m_band_len;
  suite::init_data(m_a, n, 661u);       // sa
  suite::init_data(m_b, n, 673u);       // sb
  suite::init_data_const(m_c, n, 0.0);  // b5
}

void GEN_LIN_RECUR::runVariant(VariantID vid) {
  const Index_type nbands = m_nbands;
  const Index_type len = m_band_len;
  const double* sa = m_a.data();
  const double* sb = m_b.data();
  double* b5 = m_c.data();

  // One band: the classic LCALS stb5 recurrence.
  auto band = [=](Index_type b) {
    const Index_type base = b * len;
    double stb5 = 0.1 * static_cast<double>(b + 1) /
                  static_cast<double>(nbands);
    for (Index_type k = 0; k < len; ++k) {
      b5[base + k] = sa[base + k] + stb5 * sb[base + k];
      stb5 = b5[base + k] - stb5;
    }
  };

  run_forall(vid, 0, nbands, run_reps(), band);
}

long double GEN_LIN_RECUR::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void GEN_LIN_RECUR::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

TRIDIAG_ELIM::TRIDIAG_ELIM(const RunParams& params)
    : KernelBase("TRIDIAG_ELIM", GroupID::Lcals, params) {
  set_default_size(800000);
  set_default_reps(15);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 3.0 * n;
  t.bytes_written = 8.0 * n;
  t.flops = 2.0 * n;
  t.working_set_bytes = 8.0 * 4.0 * n;
  t.branches = n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.25;
  t.fp_eff_gpu = 0.30;
}

void TRIDIAG_ELIM::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 677u);       // xin
  suite::init_data(m_b, n, 683u);       // y
  suite::init_data(m_c, n, 691u);       // z
  suite::init_data_const(m_d, n, 0.0);  // xout
}

void TRIDIAG_ELIM::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double* xin = m_a.data();
  const double* y = m_b.data();
  const double* z = m_c.data();
  double* xout = m_d.data();
  run_forall(vid, 1, n, run_reps(),
             [=](Index_type i) { xout[i] = z[i] * (y[i] - xin[i - 1]); });
}

long double TRIDIAG_ELIM::computeChecksum(VariantID) {
  return suite::calc_checksum(m_d);
}

void TRIDIAG_ELIM::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d); }

}  // namespace rperf::kernels::lcals
