// Structured-mesh Apps kernels on a 3-D node grid of dim^3 nodes and
// (dim-1)^3 zones:
//
// VOL3D:                 hexahedral zone volumes from corner coordinates
//                        (~72 flops/zone; FLOP-heavy list member, Fig 10d).
// NODAL_ACCUMULATION_3D: scatter 1/8 of each zonal value to its 8 corner
//                        nodes (atomic scatter).
// ZONAL_ACCUMULATION_3D: gather the 8 corner nodal values into each zone.
// MATVEC_3D_STENCIL:     b = A x with a 27-band stencil matrix.
#include <cmath>

#include "kernels/apps/apps.hpp"

namespace rperf::kernels::apps {

namespace {

Index_type grid_dim(Index_type prob_size) {
  auto d = static_cast<Index_type>(
      std::cbrt(static_cast<double>(prob_size)));
  if (d < 3) d = 3;
  return d;
}

}  // namespace

// ----------------------------------------------------------------- VOL3D

VOL3D::VOL3D(const RunParams& params)
    : KernelBase("VOL3D", GroupID::Apps, params) {
  set_default_size(300000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();
  m_dim = grid_dim(actual_prob_size());

  const double nz =
      static_cast<double>((m_dim - 1) * (m_dim - 1) * (m_dim - 1));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 3.0 * nz;  // coordinate reuse across corners
  t.bytes_written = 8.0 * nz;
  t.flops = 72.0 * nz;
  t.working_set_bytes = 8.0 * 4.0 * nz;
  t.branches = nz;
  t.avg_parallelism = nz;
  t.fp_eff_cpu = 0.45;
  t.fp_eff_gpu = 0.85;  // 11.3 of 13.3 dense TFLOPS on MI250X (Fig 10d)
  t.l1_hit = 0.8;
  t.code_complexity = 1.6;
}

void VOL3D::setUp(VariantID) {
  const Index_type nn = m_dim * m_dim * m_dim;
  suite::init_data(m_a, nn, 1801u);  // x
  suite::init_data(m_b, nn, 1811u);  // y
  suite::init_data(m_c, nn, 1823u);  // z
  suite::init_data_const(m_d, (m_dim - 1) * (m_dim - 1) * (m_dim - 1), 0.0);
}

void VOL3D::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const Index_type zd = d - 1;
  const double* x = m_a.data();
  const double* y = m_b.data();
  const double* z = m_c.data();
  double* vol = m_d.data();
  const double vnormq = 0.083333333333333333;  // 1/12

  auto node = [=](Index_type i, Index_type j, Index_type k) {
    return (i * d + j) * d + k;
  };

  run_forall(vid, 0, zd * zd * zd, run_reps(), [=](Index_type zidx) {
    const Index_type i = zidx / (zd * zd);
    const Index_type j = (zidx / zd) % zd;
    const Index_type k = zidx % zd;
    // Gather the 8 corners.
    const Index_type n0 = node(i, j, k), n1 = node(i + 1, j, k);
    const Index_type n2 = node(i + 1, j + 1, k), n3 = node(i, j + 1, k);
    const Index_type n4 = node(i, j, k + 1), n5 = node(i + 1, j, k + 1);
    const Index_type n6 = node(i + 1, j + 1, k + 1),
                     n7 = node(i, j + 1, k + 1);
    // Diagonal edge vectors (as in the RAJAPerf/LLNL VOL3D form).
    const double x71 = x[n7] - x[n1], x60 = x[n6] - x[n0];
    const double x52 = x[n5] - x[n2], x43 = x[n4] - x[n3];
    const double y71 = y[n7] - y[n1], y60 = y[n6] - y[n0];
    const double y52 = y[n5] - y[n2], y43 = y[n4] - y[n3];
    const double z71 = z[n7] - z[n1], z60 = z[n6] - z[n0];
    const double z52 = z[n5] - z[n2], z43 = z[n4] - z[n3];

    const double xps = x71 + x60, yps = y71 + y60, zps = z71 + z60;
    const double xms = x52 + x43, yms = y52 + y43, zms = z52 + z43;

    double v = xps * (yms * zps - zms * yps) +
               yps * (zms * xps - xms * zps) +
               zps * (xms * yps - yms * xps);
    v += (x[n1] - x[n0]) * ((y[n2] - y[n0]) * (z[n5] - z[n0]) -
                            (z[n2] - z[n0]) * (y[n5] - y[n0]));
    v += (x[n3] - x[n0]) * ((y[n7] - y[n0]) * (z[n2] - z[n0]) -
                            (z[n7] - z[n0]) * (y[n2] - y[n0]));
    v += (x[n4] - x[n0]) * ((y[n5] - y[n0]) * (z[n7] - z[n0]) -
                            (z[n5] - z[n0]) * (y[n7] - y[n0]));
    vol[zidx] = v * vnormq;
  });
}

long double VOL3D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_d);
}

void VOL3D::tearDown(VariantID) { free_data(m_a, m_b, m_c, m_d); }

// ------------------------------------------------- NODAL_ACCUMULATION_3D

NODAL_ACCUMULATION_3D::NODAL_ACCUMULATION_3D(const RunParams& params)
    : KernelBase("NODAL_ACCUMULATION_3D", GroupID::Apps, params) {
  set_default_size(300000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Atomic);
  // Double atomics into shared addresses land in arrival order.
  set_checksum_order(ChecksumOrder::Unordered,
                     {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP,
                      VariantID::RAJA_OpenMP});
  add_all_variants();
  m_dim = grid_dim(actual_prob_size());

  const double nz =
      static_cast<double>((m_dim - 1) * (m_dim - 1) * (m_dim - 1));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * nz;
  t.bytes_written = 8.0 * 8.0 * nz;  // 8 scattered RMWs per zone
  t.flops = 9.0 * nz;
  t.working_set_bytes = 8.0 * 2.0 * nz;
  t.branches = nz;
  t.atomics = 8.0 * nz;
  t.atomic_contention_cpu = 1.0;
  t.atomic_contention_gpu = 2.0;  // corner nodes shared by 8 zones
  t.avg_parallelism = nz;
  t.fp_eff_cpu = 0.15;
  t.fp_eff_gpu = 0.15;
  t.access_eff_cpu = 0.6;
  t.access_eff_gpu = 0.4;  // scatter
}

void NODAL_ACCUMULATION_3D::setUp(VariantID) {
  const Index_type nn = m_dim * m_dim * m_dim;
  const Index_type nz = (m_dim - 1) * (m_dim - 1) * (m_dim - 1);
  suite::init_data(m_a, nz, 1831u);      // vol
  suite::init_data_const(m_b, nn, 0.0);  // x (nodal accumulator)
}

void NODAL_ACCUMULATION_3D::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const Index_type zd = d - 1;
  const double* vol = m_a.data();
  double* x = m_b.data();

  auto node = [=](Index_type i, Index_type j, Index_type k) {
    return (i * d + j) * d + k;
  };

  const Index_type reps = run_reps();
  for (Index_type r = 0; r < reps; ++r) {
    // Accumulators are rezeroed so repetitions are idempotent.
    run_forall(vid, 0, d * d * d, 1, [=](Index_type n) { x[n] = 0.0; });
    run_forall(vid, 0, zd * zd * zd, 1, [=](Index_type zidx) {
      const Index_type i = zidx / (zd * zd);
      const Index_type j = (zidx / zd) % zd;
      const Index_type k = zidx % zd;
      const double val = 0.125 * vol[zidx];
      port::atomicAdd(&x[node(i, j, k)], val);
      port::atomicAdd(&x[node(i + 1, j, k)], val);
      port::atomicAdd(&x[node(i + 1, j + 1, k)], val);
      port::atomicAdd(&x[node(i, j + 1, k)], val);
      port::atomicAdd(&x[node(i, j, k + 1)], val);
      port::atomicAdd(&x[node(i + 1, j, k + 1)], val);
      port::atomicAdd(&x[node(i + 1, j + 1, k + 1)], val);
      port::atomicAdd(&x[node(i, j + 1, k + 1)], val);
    });
  }
}

long double NODAL_ACCUMULATION_3D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void NODAL_ACCUMULATION_3D::tearDown(VariantID) { free_data(m_a, m_b); }

// ------------------------------------------------- ZONAL_ACCUMULATION_3D

ZONAL_ACCUMULATION_3D::ZONAL_ACCUMULATION_3D(const RunParams& params)
    : KernelBase("ZONAL_ACCUMULATION_3D", GroupID::Apps, params) {
  set_default_size(300000);
  set_default_reps(5);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();
  m_dim = grid_dim(actual_prob_size());

  const double nz =
      static_cast<double>((m_dim - 1) * (m_dim - 1) * (m_dim - 1));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 3.0 * nz;  // nodal values, partially cached
  t.bytes_written = 8.0 * nz;
  t.flops = 8.0 * nz;
  t.working_set_bytes = 8.0 * 2.0 * nz;
  t.branches = nz;
  t.avg_parallelism = nz;
  t.fp_eff_cpu = 0.20;
  t.fp_eff_gpu = 0.25;
  t.access_eff_cpu = 0.8;
  t.access_eff_gpu = 0.6;  // gather
  t.l1_hit = 0.6;
}

void ZONAL_ACCUMULATION_3D::setUp(VariantID) {
  const Index_type nn = m_dim * m_dim * m_dim;
  const Index_type nz = (m_dim - 1) * (m_dim - 1) * (m_dim - 1);
  suite::init_data(m_a, nn, 1847u);      // nodal x
  suite::init_data_const(m_b, nz, 0.0);  // zonal
}

void ZONAL_ACCUMULATION_3D::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const Index_type zd = d - 1;
  const double* x = m_a.data();
  double* zonal = m_b.data();

  auto node = [=](Index_type i, Index_type j, Index_type k) {
    return (i * d + j) * d + k;
  };

  run_forall(vid, 0, zd * zd * zd, run_reps(), [=](Index_type zidx) {
    const Index_type i = zidx / (zd * zd);
    const Index_type j = (zidx / zd) % zd;
    const Index_type k = zidx % zd;
    zonal[zidx] = 0.125 * (x[node(i, j, k)] + x[node(i + 1, j, k)] +
                           x[node(i + 1, j + 1, k)] + x[node(i, j + 1, k)] +
                           x[node(i, j, k + 1)] + x[node(i + 1, j, k + 1)] +
                           x[node(i + 1, j + 1, k + 1)] +
                           x[node(i, j + 1, k + 1)]);
  });
}

long double ZONAL_ACCUMULATION_3D::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void ZONAL_ACCUMULATION_3D::tearDown(VariantID) { free_data(m_a, m_b); }

// ----------------------------------------------------- MATVEC_3D_STENCIL

MATVEC_3D_STENCIL::MATVEC_3D_STENCIL(const RunParams& params)
    : KernelBase("MATVEC_3D_STENCIL", GroupID::Apps, params) {
  set_default_size(200000);
  set_default_reps(3);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();
  m_dim = grid_dim(actual_prob_size());

  const double nz =
      static_cast<double>((m_dim - 2) * (m_dim - 2) * (m_dim - 2));
  auto& t = traits_rw();
  t.bytes_read = 8.0 * 28.0 * nz;  // 27 bands + x (x mostly cached)
  t.bytes_written = 8.0 * nz;
  t.flops = 54.0 * nz;
  // Per-rank blocks of the banded matrix are LLC-resident in the paper's
  // 112-rank decomposition, which is why its TMA memory-bound metric is
  // low (Sec III-A).
  t.working_set_bytes = 150.0e6;
  t.branches = nz;
  t.int_ops = 40.0 * nz;  // 27 gathers of address arithmetic
  t.avg_parallelism = nz;
  t.fp_eff_cpu = 0.30;
  t.fp_eff_gpu = 0.40;
  t.l1_hit = 0.6;
  t.l2_hit = 0.5;
}

void MATVEC_3D_STENCIL::setUp(VariantID) {
  const Index_type nn = m_dim * m_dim * m_dim;
  suite::init_data(m_a, nn, 1861u);        // x
  suite::init_data(m_c, 27 * nn, 1867u);   // matrix bands
  suite::init_data_const(m_b, nn, 0.0);    // b
}

void MATVEC_3D_STENCIL::runVariant(VariantID vid) {
  const Index_type d = m_dim;
  const Index_type inner = d - 2;
  const Index_type nn = d * d * d;
  const double* x = m_a.data();
  const double* bands = m_c.data();
  double* b = m_b.data();

  run_forall(vid, 0, inner * inner * inner, run_reps(), [=](Index_type zi) {
    const Index_type i = zi / (inner * inner) + 1;
    const Index_type j = (zi / inner) % inner + 1;
    const Index_type k = zi % inner + 1;
    const Index_type center = (i * d + j) * d + k;
    double sum = 0.0;
    Index_type band = 0;
    for (Index_type di = -1; di <= 1; ++di) {
      for (Index_type dj = -1; dj <= 1; ++dj) {
        for (Index_type dk = -1; dk <= 1; ++dk) {
          const Index_type nb = ((i + di) * d + (j + dj)) * d + (k + dk);
          sum += bands[band * nn + center] * x[nb];
          ++band;
        }
      }
    }
    b[center] = sum;
  });
}

long double MATVEC_3D_STENCIL::computeChecksum(VariantID) {
  return suite::calc_checksum(m_b);
}

void MATVEC_3D_STENCIL::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

}  // namespace rperf::kernels::apps
