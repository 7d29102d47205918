// FLOYD_WARSHALL: all-pairs shortest paths via min-plus relaxation. The
// outer k-loop is sequential; each k-pass relaxes the full matrix in
// parallel. O(n^{3/2}) work relative to matrix storage; primarily memory
// bound (the paper's FLOP-heavy exception that does not gain on the V100).
#include <algorithm>
#include <cmath>

#include "kernels/polybench/polybench.hpp"

namespace rperf::kernels::polybench {

namespace {

/// Column sweep in the row-sweep loop cannot overwrite values needed by
/// other rows in the same pass: row k and column k are fixed points of
/// pass k, so in-place relaxation is race-free across rows.
void relax_row(double* paths, Index_type d, Index_type k, Index_type i) {
  const double dik = paths[i * d + k];
  for (Index_type j = 0; j < d; ++j) {
    const double through_k = dik + paths[k * d + j];
    if (through_k < paths[i * d + j]) paths[i * d + j] = through_k;
  }
}

}  // namespace

FLOYD_WARSHALL::FLOYD_WARSHALL(const RunParams& params)
    : KernelBase("FLOYD_WARSHALL", GroupID::Polybench, params) {
  set_default_size(62500);  // 250 x 250 adjacency matrix
  set_default_reps(2);
  set_complexity(Complexity::N_3_2);
  add_feature(FeatureID::Kernel);
  add_all_variants();
  m_dim = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_dim < 2) m_dim = 2;

  const double d = static_cast<double>(m_dim);
  auto& t = traits_rw();
  t.bytes_read = 8.0 * d * d * d;  // whole matrix re-read per k-pass
  t.bytes_written = 8.0 * d * d * d * 0.2;
  t.flops = 1.0 * d * d * d;  // the adds (mins counted as branches)
  t.working_set_bytes = 8.0 * d * d;
  t.branches = d * d * d;
  t.mispredict_rate = 0.08;
  t.int_ops = 2.0 * d * d * d / 8.0;
  t.avg_parallelism = d * d;
  t.parallel_fraction = 0.999;  // sequential k-loop barrier per pass
  t.fp_eff_cpu = 0.35;
  t.fp_eff_gpu = 0.25;
  t.access_eff_gpu = 0.12;  // row-k broadcast conflicts, strided updates
  t.l1_hit = 0.6;  // row k reused across the pass
  t.l2_hit = 0.8;
  // Each k-pass is a separate device kernel on GPUs.
  t.launches_per_rep = static_cast<int>(m_dim);
}

void FLOYD_WARSHALL::setUp(VariantID) {
  suite::init_data(m_a, m_dim * m_dim, 1151u);
  // Stretch to path-like weights.
  for (auto& w : m_a) w = 1.0 + 10.0 * w;
}

void FLOYD_WARSHALL::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  double* paths = m_a.data();

  for (Index_type r = 0; r < run_reps(); ++r) {
    for (Index_type k = 0; k < d; ++k) {
      run_forall(vid, 0, d, 1,
                 [=](Index_type i) { relax_row(paths, d, k, i); });
    }
  }
}

long double FLOYD_WARSHALL::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void FLOYD_WARSHALL::tearDown(VariantID) { free_data(m_a); }

}  // namespace rperf::kernels::polybench
