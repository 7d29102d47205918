// Matrix-vector Polybench kernels. All four parallelize over matrix rows
// only (dim-way parallelism) and include a transposed pass whose access
// pattern coalesces poorly on GPUs — the paper finds none of them speed up
// on the V100 and none on the MI250X.
//
// ATAX:    y = A^T (A x)
// MVT:     x1 += A y1;  x2 += A^T y2
// GESUMMV: y = alpha*A*x + beta*B*x
// GEMVER:  A' = A + u1 v1^T + u2 v2^T;  x = beta*A'^T y + z;  w = alpha*A' x
#include <cmath>

#include "kernels/polybench/polybench.hpp"

namespace rperf::kernels::polybench {

namespace {

Index_type matrix_dim(Index_type prob_size) {
  const auto d = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(prob_size))));
  return d < 1 ? 1 : d;
}

void matvec_traits(rperf::machine::KernelTraits& t, double d,
                   double npasses) {
  t.bytes_read = npasses * 8.0 * d * d;
  t.bytes_written = npasses * 8.0 * d;
  t.flops = npasses * 2.0 * d * d;
  t.working_set_bytes = 8.0 * d * d * 0.7;  // per-rank tiles are
                                            // L2-resident (112-way split)
  t.branches = npasses * d;
  t.int_ops = npasses * d * d / 4.0;
  t.avg_parallelism = d * 32.0;  // rows x vector lanes within a row
  t.fp_eff_cpu = 0.45;        // cache-resident dot products vectorize well
  t.fp_eff_gpu = 0.30;
  t.access_eff_cpu = 0.95;
  t.access_eff_gpu = 0.12;    // transposed pass defeats coalescing
  t.l1_hit = 0.3;
  t.l2_hit = 0.5;
}

/// y[i] = sum_j A[i][j] * x[j], row-parallel.
template <typename Emit>
void run_matvec(VariantID vid, Index_type d, const double* A, const double* x,
                Emit&& emit) {
  run_forall(vid, 0, d, 1, [=](Index_type i) {
    double dot = 0.0;
    for (Index_type j = 0; j < d; ++j) {
      dot += A[i * d + j] * x[j];
    }
    emit(i, dot);
  });
}

/// y[j] = sum_i A[i][j] * x[i] — the transposed pass, parallel over output
/// columns (each work item strides down a column).
template <typename Emit>
void run_matvec_t(VariantID vid, Index_type d, const double* A,
                  const double* x, Emit&& emit) {
  run_forall(vid, 0, d, 1, [=](Index_type j) {
    double dot = 0.0;
    for (Index_type i = 0; i < d; ++i) {
      dot += A[i * d + j] * x[i];
    }
    emit(j, dot);
  });
}

}  // namespace

ATAX::ATAX(const RunParams& params)
    : KernelBase("ATAX", GroupID::Polybench, params) {
  set_default_size(640000);  // 800 x 800
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_dim = matrix_dim(actual_prob_size());
  matvec_traits(traits_rw(), static_cast<double>(m_dim), 2.0);
}

void ATAX::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 901u);       // A
  suite::init_data(m_b, d, 907u);           // x
  suite::init_data_const(m_c, d, 0.0);      // tmp = A x
  suite::init_data_const(m_d, d, 0.0);      // y = A^T tmp
}

void ATAX::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double* A = m_a.data();
  const double* x = m_b.data();
  double* tmp = m_c.data();
  double* y = m_d.data();
  const double scale = 1.0 / static_cast<double>(d);
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_matvec(vid, d, A, x,
               [=](Index_type i, double dot) { tmp[i] = dot * scale; });
    run_matvec_t(vid, d, A, tmp,
                 [=](Index_type j, double dot) { y[j] = dot; });
  }
}

long double ATAX::computeChecksum(VariantID) {
  return suite::calc_checksum(m_d);
}

void ATAX::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d); }

MVT::MVT(const RunParams& params)
    : KernelBase("MVT", GroupID::Polybench, params) {
  set_default_size(640000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_dim = matrix_dim(actual_prob_size());
  matvec_traits(traits_rw(), static_cast<double>(m_dim), 2.0);
}

void MVT::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 911u);   // A
  suite::init_data(m_b, d, 919u);       // y1
  suite::init_data(m_c, d, 929u);       // y2
  suite::init_data_const(m_d, d, 0.0);  // x1
  suite::init_data_const(m_e, d, 0.0);  // x2
}

void MVT::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double* A = m_a.data();
  const double* y1 = m_b.data();
  const double* y2 = m_c.data();
  double* x1 = m_d.data();
  double* x2 = m_e.data();
  const double scale = 1.0 / static_cast<double>(d);
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_matvec(vid, d, A, y1,
               [=](Index_type i, double dot) { x1[i] += dot * scale; });
    run_matvec_t(vid, d, A, y2,
                 [=](Index_type j, double dot) { x2[j] += dot * scale; });
  }
}

long double MVT::computeChecksum(VariantID) {
  return suite::calc_checksum(m_d) + suite::calc_checksum(m_e);
}

void MVT::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d, m_e); }

GESUMMV::GESUMMV(const RunParams& params)
    : KernelBase("GESUMMV", GroupID::Polybench, params) {
  set_default_size(450000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  // Two matrices: split the storage budget between them.
  m_dim = matrix_dim(actual_prob_size() / 2);
  matvec_traits(traits_rw(), static_cast<double>(m_dim), 2.0);
  // Both passes are row-major: memory bound (the paper calls GESUMMV out
  // as substantially memory bound on DDR), but still row-limited.
  traits_rw().access_eff_gpu = 0.25;
  // Two matrices: the working set spills past aggregate L2, so GESUMMV
  // stays memory bound on DDR and gains slightly from HBM (Sec V-C).
  traits_rw().working_set_bytes = 2.6 * 8.0 * static_cast<double>(m_dim) *
                                  static_cast<double>(m_dim);
  traits_rw().fp_eff_cpu = 0.25;
}

void GESUMMV::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 937u);   // A
  suite::init_data(m_b, d * d, 941u);   // B
  suite::init_data(m_c, d, 947u);       // x
  suite::init_data_const(m_d, d, 0.0);  // y
}

void GESUMMV::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double alpha = 0.3, beta = 0.7;
  const double* A = m_a.data();
  const double* B = m_b.data();
  const double* x = m_c.data();
  double* y = m_d.data();
  const double scale = 1.0 / static_cast<double>(d);
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_matvec(vid, d, A, x, [=](Index_type i, double dot) {
      y[i] = alpha * dot * scale;
    });
    run_matvec(vid, d, B, x, [=](Index_type i, double dot) {
      y[i] += beta * dot * scale;
    });
  }
}

long double GESUMMV::computeChecksum(VariantID) {
  return suite::calc_checksum(m_d);
}

void GESUMMV::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d); }

GEMVER::GEMVER(const RunParams& params)
    : KernelBase("GEMVER", GroupID::Polybench, params) {
  set_default_size(640000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_dim = matrix_dim(actual_prob_size());
  matvec_traits(traits_rw(), static_cast<double>(m_dim), 3.0);
  traits_rw().bytes_written += 8.0 * static_cast<double>(m_dim) *
                               static_cast<double>(m_dim);  // rank-2 update
}

void GEMVER::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 953u);       // A (updated in place)
  suite::init_data(m_b, 4 * d, 967u);       // u1,v1,u2,v2
  suite::init_data(m_c, 2 * d, 971u);       // y, z
  suite::init_data_const(m_d, d, 0.0);      // x
  suite::init_data_const(m_e, d, 0.0);      // w
}

void GEMVER::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double alpha = 0.3, beta = 0.5;
  double* A = m_a.data();
  const double* u1 = m_b.data();
  const double* v1 = m_b.data() + d;
  const double* u2 = m_b.data() + 2 * d;
  const double* v2 = m_b.data() + 3 * d;
  const double* y = m_c.data();
  const double* z = m_c.data() + d;
  double* x = m_d.data();
  double* w = m_e.data();
  const double scale = 1.0 / static_cast<double>(d);

  auto rank2_row = [=](Index_type i) {
    for (Index_type j = 0; j < d; ++j) {
      A[i * d + j] += 0.01 * (u1[i] * v1[j] + u2[i] * v2[j]);
    }
  };

  for (Index_type r = 0; r < run_reps(); ++r) {
    run_forall(vid, 0, d, 1, rank2_row);
    run_matvec_t(vid, d, A, y, [=](Index_type j, double dot) {
      x[j] = beta * dot * scale + z[j];
    });
    run_matvec(vid, d, A, x, [=](Index_type i, double dot) {
      w[i] = alpha * dot * scale;
    });
  }
}

long double GEMVER::computeChecksum(VariantID) {
  return suite::calc_checksum(m_e);
}

void GEMVER::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d, m_e); }

}  // namespace rperf::kernels::polybench
