// REDUCE_STRUCT: compute the centroid and bounding box of a particle set —
// six simultaneous reductions (sum/min/max over x and y coordinates).
#include <algorithm>
#include <limits>

#include "kernels/basic/basic.hpp"

namespace rperf::kernels::basic {

REDUCE_STRUCT::REDUCE_STRUCT(const RunParams& params)
    : KernelBase("REDUCE_STRUCT", GroupID::Basic, params) {
  set_default_size(1000000);
  set_default_reps(10);
  set_complexity(Complexity::N);
  add_feature(FeatureID::Forall);
  add_feature(FeatureID::Reduction);
  // `omp reduction` combines its partials in an unspecified order;
  // RAJA_OpenMP stays exact, as forall_reduce folds fixed blocks in order.
  set_checksum_order(ChecksumOrder::Unordered,
                     {VariantID::Base_OpenMP, VariantID::Lambda_OpenMP});
  add_all_variants();

  const double n = static_cast<double>(actual_prob_size());
  auto& t = traits_rw();
  t.bytes_read = 16.0 * n;
  t.bytes_written = 0.0;
  t.flops = 2.0 * n;
  t.working_set_bytes = 16.0 * n;
  t.branches = 4.0 * n;
  t.mispredict_rate = 0.03;
  t.int_ops = 6.0 * n;
  t.avg_parallelism = n;
  t.fp_eff_cpu = 0.10;
  t.fp_eff_gpu = 0.15;
}

void REDUCE_STRUCT::setUp(VariantID) {
  const Index_type n = actual_prob_size();
  suite::init_data(m_a, n, 457u);  // x coordinates
  suite::init_data(m_b, n, 461u);  // y coordinates
  suite::init_data_const(m_c, 6, 0.0);  // xsum,xmin,xmax,ysum,ymin,ymax
}

void REDUCE_STRUCT::runVariant(VariantID vid) {
  const Index_type n = actual_prob_size();
  const double* x = m_a.data();
  const double* y = m_b.data();
  double* out = m_c.data();
  const Index_type reps = run_reps();
  constexpr double dmax = std::numeric_limits<double>::max();
  constexpr double dlow = std::numeric_limits<double>::lowest();

  switch (vid) {
    case VariantID::Base_Seq:
    case VariantID::Lambda_Seq: {
      for (Index_type r = 0; r < reps; ++r) {
        double xs = 0.0, xmn = dmax, xmx = dlow;
        double ys = 0.0, ymn = dmax, ymx = dlow;
        for (Index_type i = 0; i < n; ++i) {
          xs += x[i];
          xmn = std::min(xmn, x[i]);
          xmx = std::max(xmx, x[i]);
          ys += y[i];
          ymn = std::min(ymn, y[i]);
          ymx = std::max(ymx, y[i]);
        }
        out[0] = xs / static_cast<double>(n);
        out[1] = xmn;
        out[2] = xmx;
        out[3] = ys / static_cast<double>(n);
        out[4] = ymn;
        out[5] = ymx;
      }
      break;
    }
    case VariantID::Lambda_OpenMP:
      case VariantID::Base_OpenMP: {
      for (Index_type r = 0; r < reps; ++r) {
        double xs = 0.0, xmn = dmax, xmx = dlow;
        double ys = 0.0, ymn = dmax, ymx = dlow;
#pragma omp parallel for reduction(+ : xs, ys) reduction(min : xmn, ymn) \
    reduction(max : xmx, ymx)
        for (Index_type i = 0; i < n; ++i) {
          xs += x[i];
          xmn = std::min(xmn, x[i]);
          xmx = std::max(xmx, x[i]);
          ys += y[i];
          ymn = std::min(ymn, y[i]);
          ymx = std::max(ymx, y[i]);
        }
        out[0] = xs / static_cast<double>(n);
        out[1] = xmn;
        out[2] = xmx;
        out[3] = ys / static_cast<double>(n);
        out[4] = ymn;
        out[5] = ymx;
      }
      break;
    }
    case VariantID::RAJA_Seq:
    case VariantID::RAJA_OpenMP: {
      struct Stats {
        double xs, xmn, xmx, ys, ymn, ymx;
      };
      run_forall_reduce(
          vid, 0, n, reps, Stats{0.0, dmax, dlow, 0.0, dmax, dlow},
          [](const Stats& a, const Stats& b) {
            return Stats{a.xs + b.xs, std::min(a.xmn, b.xmn),
                         std::max(a.xmx, b.xmx), a.ys + b.ys,
                         std::min(a.ymn, b.ymn), std::max(a.ymx, b.ymx)};
          },
          [=](Index_type i, Stats& acc) {
            acc.xs += x[i];
            acc.xmn = std::min(acc.xmn, x[i]);
            acc.xmx = std::max(acc.xmx, x[i]);
            acc.ys += y[i];
            acc.ymn = std::min(acc.ymn, y[i]);
            acc.ymx = std::max(acc.ymx, y[i]);
          },
          [=](const Stats& acc) {
            out[0] = acc.xs / static_cast<double>(n);
            out[1] = acc.xmn;
            out[2] = acc.xmx;
            out[3] = acc.ys / static_cast<double>(n);
            out[4] = acc.ymn;
            out[5] = acc.ymx;
          });
      break;
    }
  }
}

long double REDUCE_STRUCT::computeChecksum(VariantID) {
  return suite::calc_checksum(m_c);
}

void REDUCE_STRUCT::tearDown(VariantID) { free_data(m_a, m_b, m_c); }

}  // namespace rperf::kernels::basic
