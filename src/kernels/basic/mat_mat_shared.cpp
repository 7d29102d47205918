// MAT_MAT_SHARED: tiled dense matrix multiply (the "shared memory" matmul).
// This kernel defines the achieved-FLOPS row of Table II. Problem size is
// the number of output elements; the matrix dimension is its square root.
// Complexity O(n^{3/2}) relative to storage.
#include <cmath>

#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

namespace {
constexpr Index_type kTile = 16;  // default tuning; 8 and 32 selectable
}

MAT_MAT_SHARED::MAT_MAT_SHARED(const RunParams& params)
    : KernelBase("MAT_MAT_SHARED", GroupID::Basic, params) {
  set_default_size(1000000);  // 1000 x 1000
  set_default_reps(2);
  set_complexity(Complexity::N_3_2);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  add_tuning("tile_8");   // "default" is the 16x16 tile
  add_tuning("tile_32");

  m_dim = static_cast<Index_type>(
      std::llround(std::sqrt(static_cast<double>(actual_prob_size()))));
  if (m_dim < 1) m_dim = 1;
  const double d = static_cast<double>(m_dim);
  auto& t = traits_rw();
  // Tiled: each input tile is read dim/kTile times from memory at worst,
  // but with reuse the compulsory traffic dominates; count algorithmic
  // traffic per tile pass for the analytic metric (as RAJAPerf does).
  t.bytes_read = 2.0 * 8.0 * d * d * (d / kTile);
  t.bytes_written = 8.0 * d * d;
  t.flops = 2.0 * d * d * d;
  t.working_set_bytes = 3.0 * 8.0 * d * d;
  t.branches = d * d;
  t.int_ops = 4.0 * d * d * (d / kTile);
  t.avg_parallelism = d * d;
  t.fp_eff_cpu = 1.0;  // defines the machine's dense achieved fraction
  t.fp_eff_gpu = 1.0;
  t.l1_hit = 0.93;  // tile reuse
  t.l2_hit = 0.80;
  t.code_complexity = 1.3;
}

void MAT_MAT_SHARED::setUp(VariantID) {
  const Index_type d = m_dim;
  suite::init_data(m_a, d * d, 401u);
  suite::init_data(m_b, d * d, 409u);
  suite::init_data_const(m_c, d * d, 0.0);
}

namespace {

/// One output tile: accumulate A(ti,k) x B(k,tj) over k-tiles through a
/// local "shared" buffer, mirroring the GPU shared-memory algorithm. The
/// tile extent is the kernel's tuning parameter.
template <Index_type TILE>
void run_tiled_matmul(VariantID vid, Index_type d, Index_type reps,
                      const double* A, const double* B, double* C) {
  const Index_type ntiles = (d + TILE - 1) / TILE;
  auto tile_body = [=](Index_type bi, Index_type bj) {
    double As[TILE][TILE];
    double Bs[TILE][TILE];
    double Cs[TILE][TILE] = {};
    const Index_type i0 = bi * TILE;
    const Index_type j0 = bj * TILE;
    for (Index_type bk = 0; bk < ntiles; ++bk) {
      const Index_type k0 = bk * TILE;
      for (Index_type ti = 0; ti < TILE; ++ti) {
        for (Index_type tk = 0; tk < TILE; ++tk) {
          const Index_type i = i0 + ti, k = k0 + tk;
          As[ti][tk] = (i < d && k < d) ? A[i * d + k] : 0.0;
        }
      }
      for (Index_type tk = 0; tk < TILE; ++tk) {
        for (Index_type tj = 0; tj < TILE; ++tj) {
          const Index_type k = k0 + tk, j = j0 + tj;
          Bs[tk][tj] = (k < d && j < d) ? B[k * d + j] : 0.0;
        }
      }
      for (Index_type ti = 0; ti < TILE; ++ti) {
        for (Index_type tk = 0; tk < TILE; ++tk) {
          const double a = As[ti][tk];
          for (Index_type tj = 0; tj < TILE; ++tj) {
            Cs[ti][tj] += a * Bs[tk][tj];
          }
        }
      }
    }
    for (Index_type ti = 0; ti < TILE; ++ti) {
      for (Index_type tj = 0; tj < TILE; ++tj) {
        const Index_type i = i0 + ti, j = j0 + tj;
        if (i < d && j < d) C[i * d + j] = Cs[ti][tj];
      }
    }
  };

  const RangeSegment tiles(0, ntiles);
  run_forall_2d(vid, tiles, tiles, reps, tile_body);
}

}  // namespace

void MAT_MAT_SHARED::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const double* A = m_a.data();
  const double* B = m_b.data();
  double* C = m_c.data();
  switch (current_tuning()) {
    case 1:
      run_tiled_matmul<8>(vid, d, run_reps(), A, B, C);
      break;
    case 2:
      run_tiled_matmul<32>(vid, d, run_reps(), A, B, C);
      break;
    default:
      run_tiled_matmul<kTile>(vid, d, run_reps(), A, B, C);
      break;
  }
}

long double MAT_MAT_SHARED::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void MAT_MAT_SHARED::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

}  // namespace rperf::kernels::basic
