// Stencil Polybench kernels — time-stepped Jacobi-style updates.
//
// JACOBI_1D: 3-point 1-D stencil, ping-pong buffers
// JACOBI_2D: 5-point 2-D stencil, ping-pong buffers
// HEAT_3D:   7-point 3-D heat equation, ping-pong buffers
// FDTD_2D:   2-D finite-difference time domain (ey/ex/hz sub-updates)
#include <cmath>

#include "kernels/polybench/polybench.hpp"

namespace rperf::kernels::polybench {

namespace {
constexpr Index_type kTsteps = 4;

void stencil_traits(rperf::machine::KernelTraits& t, double cells,
                    double points, double tsteps) {
  t.bytes_read = tsteps * 8.0 * points * cells;
  t.bytes_written = tsteps * 8.0 * cells;
  t.flops = tsteps * points * cells;
  t.working_set_bytes = 2.0 * 8.0 * cells;
  t.branches = tsteps * cells;
  t.avg_parallelism = cells;
  t.fp_eff_cpu = 0.25;
  t.fp_eff_gpu = 0.30;
  t.l1_hit = 0.5;  // neighbor reuse
}

}  // namespace

JACOBI_1D::JACOBI_1D(const RunParams& params)
    : KernelBase("JACOBI_1D", GroupID::Polybench, params) {
  set_default_size(1000000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();
  m_tsteps = kTsteps;
  stencil_traits(traits_rw(), static_cast<double>(actual_prob_size()), 3.0,
                 static_cast<double>(m_tsteps));
}

void JACOBI_1D::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 1009u);  // A
  suite::init_data(m_b, n, 1013u);  // B
}

void JACOBI_1D::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  double* A = m_a.data();
  double* B = m_b.data();
  for (Index_type r = 0; r < run_reps(); ++r) {
    for (Index_type ts = 0; ts < m_tsteps; ++ts) {
      run_forall(vid, 1, n - 1, 1, [=](Index_type i) {
        B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
      });
      run_forall(vid, 1, n - 1, 1, [=](Index_type i) {
        A[i] = (B[i - 1] + B[i] + B[i + 1]) / 3.0;
      });
    }
  }
}

long double JACOBI_1D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void JACOBI_1D::tearDown(VariantID) { free_data(m_a, m_b); }

JACOBI_2D::JACOBI_2D(const RunParams& params)
    : KernelBase("JACOBI_2D", GroupID::Polybench, params) {
  set_default_size(1000000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_all_variants();
  m_tsteps = kTsteps;
  m_dim = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_dim < 4) m_dim = 4;
  stencil_traits(traits_rw(),
                 static_cast<double>((m_dim - 2) * (m_dim - 2)), 5.0,
                 static_cast<double>(m_tsteps));
}

void JACOBI_2D::setUp(VariantID) {
  const Index_type total = m_dim * m_dim;
  suite::init_data(m_a, total, 1019u);
  suite::init_data(m_b, total, 1021u);
}

void JACOBI_2D::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  double* A = m_a.data();
  double* B = m_b.data();
  auto stepAB = [=](Index_type i, Index_type j) {
    B[i * d + j] = 0.2 * (A[i * d + j] + A[i * d + j - 1] +
                          A[i * d + j + 1] + A[(i - 1) * d + j] +
                          A[(i + 1) * d + j]);
  };
  auto stepBA = [=](Index_type i, Index_type j) {
    A[i * d + j] = 0.2 * (B[i * d + j] + B[i * d + j - 1] +
                          B[i * d + j + 1] + B[(i - 1) * d + j] +
                          B[(i + 1) * d + j]);
  };
  const RangeSegment inner(1, d - 1);
  for (Index_type r = 0; r < run_reps(); ++r) {
    for (Index_type ts = 0; ts < m_tsteps; ++ts) {
      run_forall_2d(vid, inner, inner, 1, stepAB);
      run_forall_2d(vid, inner, inner, 1, stepBA);
    }
  }
}

long double JACOBI_2D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void JACOBI_2D::tearDown(VariantID) { free_data(m_a, m_b); }

HEAT_3D::HEAT_3D(const RunParams& params)
    : KernelBase("HEAT_3D", GroupID::Polybench, params) {
  set_default_size(1000000);
  set_default_reps(3);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_all_variants();
  m_tsteps = kTsteps;
  m_dim = static_cast<Index_type>(
      std::cbrt(static_cast<double>(actual_prob_size())));
  if (m_dim < 4) m_dim = 4;
  const double inner = static_cast<double>((m_dim - 2) * (m_dim - 2) *
                                           (m_dim - 2));
  stencil_traits(traits_rw(), inner, 10.0,
                 static_cast<double>(m_tsteps));
}

void HEAT_3D::setUp(VariantID) {
  const Index_type total = m_dim * m_dim * m_dim;
  suite::init_data(m_a, total, 1031u);
  suite::init_data(m_b, total, 1033u);
}

void HEAT_3D::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  double* A = m_a.data();
  double* B = m_b.data();
  auto idx = [=](Index_type i, Index_type j, Index_type k) {
    return (i * d + j) * d + k;
  };
  auto heat = [=](double* dst, const double* src, Index_type i, Index_type j,
                  Index_type k) {
    dst[idx(i, j, k)] =
        0.125 * (src[idx(i + 1, j, k)] - 2.0 * src[idx(i, j, k)] +
                 src[idx(i - 1, j, k)]) +
        0.125 * (src[idx(i, j + 1, k)] - 2.0 * src[idx(i, j, k)] +
                 src[idx(i, j - 1, k)]) +
        0.125 * (src[idx(i, j, k + 1)] - 2.0 * src[idx(i, j, k)] +
                 src[idx(i, j, k - 1)]) +
        src[idx(i, j, k)];
  };
  auto stepAB = [=](Index_type i, Index_type j, Index_type k) {
    heat(B, A, i, j, k);
  };
  auto stepBA = [=](Index_type i, Index_type j, Index_type k) {
    heat(A, B, i, j, k);
  };
  const RangeSegment inner(1, d - 1);
  for (Index_type r = 0; r < run_reps(); ++r) {
    for (Index_type ts = 0; ts < m_tsteps; ++ts) {
      run_forall_3d(vid, inner, inner, inner, 1, stepAB);
      run_forall_3d(vid, inner, inner, inner, 1, stepBA);
    }
  }
}

long double HEAT_3D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void HEAT_3D::tearDown(VariantID) { free_data(m_a, m_b); }

FDTD_2D::FDTD_2D(const RunParams& params)
    : KernelBase("FDTD_2D", GroupID::Polybench, params) {
  set_default_size(1000000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_all_variants();
  m_tsteps = kTsteps;
  m_ni = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_ni < 4) m_ni = 4;
  m_nj = m_ni;
  stencil_traits(traits_rw(), static_cast<double>(m_ni * m_nj), 6.0,
                 static_cast<double>(m_tsteps));
}

void FDTD_2D::setUp(VariantID) {
  const Index_type total = m_ni * m_nj;
  suite::init_data(m_a, total, 1039u);  // ex
  suite::init_data(m_b, total, 1049u);  // ey
  suite::init_data(m_c, total, 1051u);  // hz
  suite::init_data(m_d, m_tsteps, 1061u);  // _fict_
}

void FDTD_2D::runVariant(VariantID vid) {
  const Index_type ni = m_ni, nj = m_nj;
  double* ex = m_a.data();
  double* ey = m_b.data();
  double* hz = m_c.data();
  const double* fict = m_d.data();

  for (Index_type r = 0; r < run_reps(); ++r) {
    for (Index_type ts = 0; ts < m_tsteps; ++ts) {
      auto set_row0 = [=](Index_type j) { ey[j] = fict[ts]; };
      auto update_ey = [=](Index_type i, Index_type j) {
        ey[i * nj + j] -= 0.5 * (hz[i * nj + j] - hz[(i - 1) * nj + j]);
      };
      auto update_ex = [=](Index_type i, Index_type j) {
        ex[i * nj + j] -= 0.5 * (hz[i * nj + j] - hz[i * nj + j - 1]);
      };
      auto update_hz = [=](Index_type i, Index_type j) {
        hz[i * nj + j] -= 0.7 * (ex[i * nj + j + 1] - ex[i * nj + j] +
                                 ey[(i + 1) * nj + j] - ey[i * nj + j]);
      };
      run_forall(vid, 0, nj, 1, set_row0);
      run_forall_2d(vid, RangeSegment(1, ni), RangeSegment(0, nj), 1,
                    update_ey);
      run_forall_2d(vid, RangeSegment(0, ni), RangeSegment(1, nj), 1,
                    update_ex);
      run_forall_2d(vid, RangeSegment(0, ni - 1), RangeSegment(0, nj - 1), 1,
                    update_hz);
    }
  }
}

long double FDTD_2D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void FDTD_2D::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d); }

}  // namespace rperf::kernels::polybench
