// GEMM: C = alpha*A*B + beta*C
// 2MM:  D = (alpha*A*B)*C + beta*D   (two chained matmuls via a temporary)
// 3MM:  G = (A*B)*(C*D)              (three matmuls)
//
// All three are FLOP-dense, core-bound on CPUs, and among the paper's 17
// FLOP-heavy kernels that gain more on GPUs than on SPR-HBM.
#include <cmath>

#include "kernels/polybench/polybench.hpp"

namespace rperf::kernels::polybench {

namespace {

Index_type matrix_dim(Index_type prob_size) {
  const auto d = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(prob_size))));
  return d < 1 ? 1 : d;
}

/// Shared trait profile for the dense matmul kernels; `nmuls` chained
/// matrix multiplies of dimension d.
void matmul_traits(rperf::machine::KernelTraits& t, double d, double nmuls) {
  t.bytes_read = nmuls * 2.0 * 8.0 * d * d;  // algorithmic traffic w/ reuse
  t.bytes_written = nmuls * 8.0 * d * d;
  t.flops = nmuls * 2.0 * d * d * d;
  t.working_set_bytes = (2.0 + nmuls) * 8.0 * d * d;
  t.branches = nmuls * d * d;
  t.int_ops = nmuls * 3.0 * d * d * d / 8.0;  // vectorized index math
  t.avg_parallelism = d * d;
  t.fp_eff_cpu = 0.85;  // slightly below the tiled MAT_MAT_SHARED
  t.fp_eff_gpu = 0.85;
  t.l1_hit = 0.85;
  t.l2_hit = 0.75;
}

/// Dense matrix multiply C (+)= scale * A*B through the given variant. The
/// i-loop is the parallel dimension (one row of C per work item).
template <typename Accum>
void run_matmul(VariantID vid, Index_type d, const double* A, const double* B,
                double* C, Accum&& accum) {
  run_forall(vid, 0, d, 1, [=](Index_type i) {
    for (Index_type j = 0; j < d; ++j) {
      double dot = 0.0;
      for (Index_type k = 0; k < d; ++k) {
        dot += A[i * d + k] * B[k * d + j];
      }
      accum(&C[i * d + j], dot);
    }
  });
}

}  // namespace

GEMM::GEMM(const RunParams& params)
    : KernelBase("GEMM", GroupID::Polybench, params) {
  set_default_size(360000);  // 600 x 600
  set_default_reps(2);
  set_complexity(Complexity::N_3_2);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_dim = matrix_dim(actual_prob_size());
  matmul_traits(traits_rw(), static_cast<double>(m_dim), 1.0);
}

void GEMM::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 801u);
  suite::init_data(m_b, d * d, 809u);
  suite::init_data(m_c, d * d, 811u);
}

void GEMM::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double alpha = 0.1, beta = 0.5;
  const double* A = m_a.data();
  const double* B = m_b.data();
  double* C = m_c.data();
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_matmul(vid, d, A, B, C, [=](double* c, double dot) {
      *c = alpha * dot + beta * (*c);
    });
  }
}

long double GEMM::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void GEMM::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

P2MM::P2MM(const RunParams& params)
    : KernelBase("2MM", GroupID::Polybench, params) {
  set_default_size(250000);  // 500 x 500
  set_default_reps(2);
  set_complexity(Complexity::N_3_2);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_dim = matrix_dim(actual_prob_size());
  matmul_traits(traits_rw(), static_cast<double>(m_dim), 2.0);
}

void P2MM::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 821u);        // A
  suite::init_data(m_b, d * d, 823u);        // B
  suite::init_data(m_c, d * d, 827u);        // C
  suite::init_data(m_d, d * d, 829u);        // D (in/out)
  suite::init_data_const(m_e, d * d, 0.0);   // tmp
}

void P2MM::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double alpha = 0.05, beta = 0.4;
  const double* A = m_a.data();
  const double* B = m_b.data();
  const double* C = m_c.data();
  double* D = m_d.data();
  double* tmp = m_e.data();
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_matmul(vid, d, A, B, tmp,
               [=](double* t, double dot) { *t = alpha * dot; });
    run_matmul(vid, d, tmp, C, D,
               [=](double* out, double dot) { *out = dot + beta * (*out); });
  }
}

long double P2MM::computeChecksum(VariantID) {
  return suite::calc_checksum(m_d);
}

void P2MM::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d, m_e); }

P3MM::P3MM(const RunParams& params)
    : KernelBase("3MM", GroupID::Polybench, params) {
  set_default_size(250000);
  set_default_reps(2);
  set_complexity(Complexity::N_3_2);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_dim = matrix_dim(actual_prob_size());
  matmul_traits(traits_rw(), static_cast<double>(m_dim), 3.0);
}

void P3MM::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 839u);        // A
  suite::init_data(m_b, d * d, 853u);        // B
  suite::init_data(m_c, d * d, 857u);        // C
  suite::init_data(m_d, d * d, 859u);        // D
  suite::init_data_const(m_e, 3 * d * d, 0.0);  // E, F, G
}

void P3MM::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double scale = 1.0 / static_cast<double>(d);
  const double* A = m_a.data();
  const double* B = m_b.data();
  const double* C = m_c.data();
  const double* D = m_d.data();
  double* E = m_e.data();
  double* F = m_e.data() + d * d;
  double* G = m_e.data() + 2 * d * d;
  for (Index_type r = 0; r < run_reps(); ++r) {
    run_matmul(vid, d, A, B, E,
               [=](double* e, double dot) { *e = dot * scale; });
    run_matmul(vid, d, C, D, F,
               [=](double* f, double dot) { *f = dot * scale; });
    run_matmul(vid, d, E, F, G, [=](double* g, double dot) { *g = dot; });
  }
}

long double P3MM::computeChecksum(VariantID) {
  return suite::calc_checksum(m_e.data() + 2 * m_dim * m_dim,
                              m_dim * m_dim);
}

void P3MM::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d, m_e); }

}  // namespace rperf::kernels::polybench
