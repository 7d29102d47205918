// Order statistics for rperf_bench: median, quartiles, geometric mean and
// the tail-percentile rule the benchmark reports timings with.
//
// Quartiles follow Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so the spread the benchmark prints matches
// the spread a Python harness computes from the same samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rperf::bench {

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// First, second and third quartile exactly as Python's
/// statistics.quantiles(v, n=4) computes them: positions i*(n+1)/4,
/// clamped to [1, n-1], linearly interpolated. A single sample is its own
/// quartiles; an empty sample gives zeros.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

/// Geometric mean of the positive values of `v` (non-positive values are
/// not ratios and are skipped); 0 when none are positive.
inline double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : v) {
    if (x > 0.0 && std::isfinite(x)) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

/// A tail latency reported with the evidence behind it.
struct Tail {
  double value = 0.0;         ///< the percentile's sample value
  double percentile = 0.0;    ///< which percentile (50, 75, 90, 95, 99, 99.9)
  std::size_t samples = 0;    ///< sample count it was taken from
  std::size_t beyond = 0;     ///< samples strictly past its rank
};

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least
/// `min_beyond` samples beyond it (nearest-rank definition: the p-th
/// percentile is the ceil(p/100 * n)-th smallest sample, and the samples
/// beyond it are the n - rank larger ones). When even p50 lacks that
/// support the median rank is still reported, with its true `beyond`
/// count, so a reader can see the tail is unresolved. Empty input gives a
/// zero Tail.
inline Tail tail_percentile(std::vector<double> v,
                            std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Percentiles in per-mille so the rank arithmetic is exact.
  static constexpr std::size_t kPerMille[] = {999, 990, 950, 900, 750, 500};
  for (std::size_t pm : kPerMille) {
    const std::size_t rank = std::max<std::size_t>(1, (pm * n + 999) / 1000);
    const std::size_t beyond = n - rank;
    if (beyond >= min_beyond || pm == 500) {
      t.value = v[rank - 1];
      t.percentile = static_cast<double>(pm) / 10.0;
      t.beyond = beyond;
      return t;
    }
  }
  return t;  // unreachable: the p50 entry always returns
}

}  // namespace rperf::bench
