// LTIMES / LTIMES_NOVIEW: discrete-ordinates transport moment update
//   phi(m, g, z) += ell(m, d) * psi(d, g, z)
// over num_m moments, num_d directions, num_g groups, num_z zones.
// LTIMES indexes through multi-dimensional Views; LTIMES_NOVIEW uses raw
// pointer arithmetic — the pair isolates View abstraction overhead.
#include "kernels/apps/apps.hpp"

namespace rperf::kernels::apps {

namespace {
constexpr Index_type kNumM = 25;
constexpr Index_type kNumD = 64;
constexpr Index_type kNumG = 32;

void ltimes_traits(rperf::machine::KernelTraits& t, double nz) {
  const double m = kNumM, d = kNumD, g = kNumG;
  t.bytes_read = 8.0 * (d * g * nz + m * d);  // psi once, ell cached
  t.bytes_written = 8.0 * m * g * nz;
  t.flops = 2.0 * m * d * g * nz;
  t.working_set_bytes = 8.0 * (d * g * nz + m * g * nz);
  t.branches = m * g * nz;
  t.avg_parallelism = g * nz;
  t.vector_fraction = 0.35;
  t.fp_eff_cpu = 0.40;
  t.fp_eff_gpu = 0.30;
  t.l1_hit = 0.85;  // ell reuse
  t.code_complexity = 1.4;
}

}  // namespace

LTIMES::LTIMES(const RunParams& params)
    : KernelBase("LTIMES", GroupID::Apps, params) {
  set_default_size(400000);
  set_default_reps(3);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_feature(FeatureID::View);
  add_all_variants();
  m_num_z = std::max<Index_type>(1, actual_prob_size() / (kNumM * kNumG));
  ltimes_traits(traits_rw(), static_cast<double>(m_num_z));
}

void LTIMES::setUp(VariantID) {
  suite::init_data(m_a, kNumD * kNumG * m_num_z, 1701u);  // psi
  suite::init_data(m_b, kNumM * kNumD, 1709u);            // ell
  suite::init_data_const(m_c, kNumM * kNumG * m_num_z, 0.0);  // phi
}

void LTIMES::runVariant(VariantID vid) {
  using namespace ::rperf::port;
  const Index_type nz = m_num_z;
  View<const double, 3> psi(m_a.data(), kNumD, kNumG, nz);
  View<const double, 2> ell(m_b.data(), kNumM, kNumD);
  View<double, 3> phi(m_c.data(), kNumM, kNumG, nz);

  auto zone = [=](Index_type z) {
    for (Index_type g = 0; g < kNumG; ++g) {
      for (Index_type m = 0; m < kNumM; ++m) {
        double sum = phi(m, g, z);
        for (Index_type d = 0; d < kNumD; ++d) {
          sum += ell(m, d) * psi(d, g, z);
        }
        phi(m, g, z) = sum;
      }
    }
  };

  run_forall(vid, 0, nz, run_reps(), zone);
}

long double LTIMES::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void LTIMES::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

LTIMES_NOVIEW::LTIMES_NOVIEW(const RunParams& params)
    : KernelBase("LTIMES_NOVIEW", GroupID::Apps, params) {
  set_default_size(400000);
  set_default_reps(3);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Kernel);
  add_all_variants();
  m_num_z = std::max<Index_type>(1, actual_prob_size() / (kNumM * kNumG));
  ltimes_traits(traits_rw(), static_cast<double>(m_num_z));
}

void LTIMES_NOVIEW::setUp(VariantID) {
  suite::init_data(m_a, kNumD * kNumG * m_num_z, 1701u);
  suite::init_data(m_b, kNumM * kNumD, 1709u);
  suite::init_data_const(m_c, kNumM * kNumG * m_num_z, 0.0);
}

void LTIMES_NOVIEW::runVariant(VariantID vid) {
  const Index_type nz = m_num_z;
  const double* psi = m_a.data();
  const double* ell = m_b.data();
  double* phi = m_c.data();

  auto zone = [=](Index_type z) {
    for (Index_type g = 0; g < kNumG; ++g) {
      for (Index_type m = 0; m < kNumM; ++m) {
        double sum = phi[(m * kNumG + g) * nz + z];
        for (Index_type d = 0; d < kNumD; ++d) {
          sum += ell[m * kNumD + d] * psi[(d * kNumG + g) * nz + z];
        }
        phi[(m * kNumG + g) * nz + z] = sum;
      }
    }
  };

  run_forall(vid, 0, nz, run_reps(), zone);
}

long double LTIMES_NOVIEW::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void LTIMES_NOVIEW::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

}  // namespace rperf::kernels::apps
