// ARRAY_OF_PTRS: sum a fixed set of arrays addressed through an array of
// pointers captured in the kernel body — stresses pointer-heavy lambda
// captures.
#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

ARRAY_OF_PTRS::ARRAY_OF_PTRS(const RunParams& params)
    : KernelBase("ARRAY_OF_PTRS", GroupID::Basic, params) {
  set_default_size(500000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 8.0 * kNumPtrs * n;
  t.bytes_written = 8.0 * n;
  t.flops = static_cast<double>(kNumPtrs) * n;
  t.working_set_bytes = 8.0 * (kNumPtrs + 1) * n;
  t.branches = n * kNumPtrs;
  t.int_ops = 2.0 * kNumPtrs * n;  // pointer chasing per term
  t.avg_parallelism = n;
  t.code_complexity = 1.4;
  t.fp_eff_cpu = 0.25;
  t.fp_eff_gpu = 0.25;
}

void ARRAY_OF_PTRS::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  for (int p = 0; p < kNumPtrs; ++p) {
    suite::init_data(m_sub[static_cast<std::size_t>(p)], n,
                     101u + static_cast<std::uint32_t>(p));
  }
  suite::init_data_const(m_a, n, 0.0);
}

void ARRAY_OF_PTRS::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  std::array<const double*, kNumPtrs> ptrs{};
  for (int p = 0; p < kNumPtrs; ++p) {
    ptrs[static_cast<std::size_t>(p)] =
        m_sub[static_cast<std::size_t>(p)].data();
  }
  double* y = m_a.data();
  run_forall(vid, 0, n, run_reps(), [=](Index_type i) {
    double sum = 0.0;
    for (int p = 0; p < kNumPtrs; ++p) {
      sum += ptrs[static_cast<std::size_t>(p)][i];
    }
    y[i] = sum;
  });
}

long double ARRAY_OF_PTRS::computeChecksum(VariantID) {
  return suite::calc_checksum(m_a);
}

void ARRAY_OF_PTRS::tearDown(VariantID) {
  free_data(m_a);
  for (auto& sub : m_sub) free_data(sub);
}

}  // namespace rperf::kernels::basic
