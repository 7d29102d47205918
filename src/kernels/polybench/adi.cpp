// ADI: alternating-direction-implicit integration. Each time step performs
// a forward/backward tridiagonal sweep along columns, then along rows.
// Parallelism exists only across lines (dim-way); within a line the
// recurrence is strictly sequential — the canonical limited-parallelism
// kernel that fails to speed up on GPUs in the paper.
#include <cmath>

#include "kernels/polybench/polybench.hpp"

namespace rperf::kernels::polybench {

ADI::ADI(const RunParams& params)
    : KernelBase("ADI", GroupID::Polybench, params) {
  set_default_size(250000);  // 500 x 500 grid
  set_default_reps(3);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_all_variants();
  m_tsteps = 2;
  m_dim = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_dim < 4) m_dim = 4;

  const double d = static_cast<double>(m_dim);
  const double sweeps = 2.0 * static_cast<double>(m_tsteps);
  auto& t = traits_rw();
  t.bytes_read = sweeps * 8.0 * 3.0 * d * d;
  t.bytes_written = sweeps * 8.0 * 2.0 * d * d;
  t.flops = sweeps * 10.0 * d * d;
  t.working_set_bytes = 4.0 * 8.0 * d * d;
  t.branches = sweeps * d * d;
  t.avg_parallelism = d * 2.0;  // independent lines only
  t.fp_eff_cpu = 0.10;    // dependent divide chain along the line
  t.fp_eff_gpu = 0.10;
  t.access_eff_cpu = 0.6;   // column sweep strides
  t.access_eff_gpu = 0.15;
  t.int_ops = sweeps * 20.0 * d * d;  // divisions
}

void ADI::setUp(VariantID) {
  const Index_type total = m_dim * m_dim;
  suite::init_data(m_a, total, 1103u);      // u
  suite::init_data_const(m_b, total, 0.0);  // v
  suite::init_data_const(m_c, total, 0.0);  // p
  suite::init_data_const(m_d, total, 0.0);  // q
}

void ADI::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  double* u = m_a.data();
  double* v = m_b.data();
  double* p = m_c.data();
  double* q = m_d.data();
  const double a = -0.2, b = 1.4, c = -0.2;

  // Column sweep: solve a tridiagonal system down column j of u into v.
  auto column_sweep = [=](Index_type j) {
    v[0 * d + j] = 1.0;
    p[0 * d + j] = 0.0;
    q[0 * d + j] = v[0 * d + j];
    for (Index_type i = 1; i < d - 1; ++i) {
      const double denom = a * p[(i - 1) * d + j] + b;
      p[i * d + j] = -c / denom;
      q[i * d + j] =
          (u[i * d + j] - a * q[(i - 1) * d + j]) / denom;
    }
    v[(d - 1) * d + j] = 1.0;
    for (Index_type i = d - 2; i >= 1; --i) {
      v[i * d + j] = p[i * d + j] * v[(i + 1) * d + j] + q[i * d + j];
    }
  };
  // Row sweep: solve along row i of v into u.
  auto row_sweep = [=](Index_type i) {
    u[i * d + 0] = 1.0;
    p[i * d + 0] = 0.0;
    q[i * d + 0] = u[i * d + 0];
    for (Index_type j = 1; j < d - 1; ++j) {
      const double denom = a * p[i * d + j - 1] + b;
      p[i * d + j] = -c / denom;
      q[i * d + j] = (v[i * d + j] - a * q[i * d + j - 1]) / denom;
    }
    u[i * d + d - 1] = 1.0;
    for (Index_type j = d - 2; j >= 1; --j) {
      u[i * d + j] = p[i * d + j] * u[i * d + j + 1] + q[i * d + j];
    }
  };

  for (Index_type r = 0; r < run_reps(); ++r) {
    for (Index_type ts = 0; ts < m_tsteps; ++ts) {
      run_forall(vid, 1, d - 1, 1, column_sweep);
      run_forall(vid, 1, d - 1, 1, row_sweep);
    }
  }
}

long double ADI::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void ADI::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d); }

}  // namespace rperf::kernels::polybench
