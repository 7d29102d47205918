// HYDRO_2D: two-dimensional explicit hydrodynamics fragment (Livermore
// loop 18) — three stencil sub-loops over a (jn x kn) grid producing
// velocity (za, zb), flux (zu, zv), and updated field (zr-out, zz-out).
#include <cmath>

#include "kernels/lcals/lcals.hpp"

namespace rperf::kernels::lcals {

HYDRO_2D::HYDRO_2D(const RunParams& params)
    : KernelBase("HYDRO_2D", GroupID::Lcals, params) {
  set_default_size(250000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();

  m_kn = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_kn < 4) m_kn = 4;
  m_jn = m_kn;

  const double cells = static_cast<double>((m_jn - 2) * (m_kn - 2));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 22.0 * cells;   // three stencil passes
  t.bytes_written = 8.0 * 6.0 * cells;
  t.flops = 40.0 * cells;
  t.working_set_bytes = 8.0 * 10.0 * static_cast<double>(m_jn * m_kn);
  t.branches = 3.0 * cells;
  t.avg_parallelism = cells;
  t.fp_eff_cpu = 0.20;
  t.fp_eff_gpu = 0.25;
  t.l1_hit = 0.4;  // stencil row reuse
}

void HYDRO_2D::setUp(VariantID) {
  const Index_type total = m_jn * m_kn;
  suite::init_data(m_a, total, 701u);        // zp
  suite::init_data(m_b, total, 709u);        // zq
  suite::init_data(m_c, total, 719u);        // zr
  suite::init_data_ramp(m_d, total, 1.0, 2.0);  // zm (positive: divisor)
  suite::init_data_const(m_e, total, 0.0);   // za
  suite::init_data_const(m_f, total, 0.0);   // zb
  suite::init_data_const(m_g, total, 0.0);   // zu
  suite::init_data_const(m_h, total, 0.0);   // zv
  suite::init_data_const(m_p, total, 0.0);   // zrout
  suite::init_data_const(m_q, total, 0.0);   // zzout
}

void HYDRO_2D::runVariant(VariantID vid) {
  const Index_type jn = m_jn, kn = m_kn;
  const double* zp = m_a.data();
  const double* zq = m_b.data();
  const double* zr = m_c.data();
  const double* zm = m_d.data();
  double* za = m_e.data();
  double* zb = m_f.data();
  double* zu = m_g.data();
  double* zv = m_h.data();
  double* zrout = m_p.data();
  double* zzout = m_q.data();
  const double s = 0.0041, tfact = 0.0037;

  auto at = [=](const double* f, Index_type j, Index_type k) {
    return f[j * kn + k];
  };

  auto loop1 = [=](Index_type j, Index_type k) {
    za[j * kn + k] = (at(zp, j + 1, k - 1) + at(zq, j + 1, k - 1) -
                      at(zp, j, k - 1) - at(zq, j, k - 1)) *
                     (at(zr, j, k) + at(zr, j, k - 1)) /
                     (at(zm, j, k - 1) + at(zm, j + 1, k - 1));
    zb[j * kn + k] = (at(zp, j, k - 1) + at(zq, j, k - 1) - at(zp, j, k) -
                      at(zq, j, k)) *
                     (at(zr, j, k) + at(zr, j - 1, k)) /
                     (at(zm, j, k) + at(zm, j, k - 1));
  };
  auto loop2 = [=](Index_type j, Index_type k) {
    zu[j * kn + k] = s * (za[j * kn + k] * (at(zr, j, k) - at(zr, j, k + 1)) -
                          za[j * kn + k - 1] *
                              (at(zr, j, k) - at(zr, j, k - 1)) -
                          zb[j * kn + k] * (at(zr, j, k) - at(zr, j - 1, k)) +
                          zb[(j + 1) * kn + k] *
                              (at(zr, j, k) - at(zr, j + 1, k)));
    zv[j * kn + k] = s * (za[j * kn + k] * (at(zm, j, k) - at(zm, j, k + 1)) -
                          za[j * kn + k - 1] *
                              (at(zm, j, k) - at(zm, j, k - 1)) -
                          zb[j * kn + k] * (at(zm, j, k) - at(zm, j - 1, k)) +
                          zb[(j + 1) * kn + k] *
                              (at(zm, j, k) - at(zm, j + 1, k)));
  };
  auto loop3 = [=](Index_type j, Index_type k) {
    zrout[j * kn + k] = at(zr, j, k) + tfact * zu[j * kn + k];
    zzout[j * kn + k] = at(zm, j, k) + tfact * zv[j * kn + k];
  };

  const RangeSegment jr(1, jn - 1), kr(1, kn - 1);
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_forall_2d(vid, jr, kr, 1, loop1);
    run_forall_2d(vid, jr, kr, 1, loop2);
    run_forall_2d(vid, jr, kr, 1, loop3);
  }
}

long double HYDRO_2D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_p) + suite::calc_checksum(m_q);
}

void HYDRO_2D::tearDown(VariantID) {
  free_data(m_a, m_b, m_c, m_d, m_e, m_f, m_g, m_h, m_p, m_q);
}

}  // namespace rperf::kernels::lcals
