#include "suite/data_utils.hpp"

#include <algorithm>
#include <cmath>

#include <omp.h>

#include "mem/fill.hpp"
#include "port/blocked.hpp"

namespace rperf::suite {

namespace {

constexpr Index_type kBlock = mem::kFillBlockElems;

/// Elements after which both the lane (i % 4) and the weight (i % 7) of
/// an element repeat.
constexpr Index_type kPeriod = 28;
static_assert(kBlock % 4 == 0, "lanes must restart at every block");

/// One block of the shared checksum: four stride-4 double lanes (breaking
/// the serial FP dependency chain), folded lane 0..3 into a long double
/// partial. Depends only on (data, begin, len).
///
/// The lanes are four register accumulators stepped over one kPeriod of
/// elements at a time against a per-block table of its weights, so the
/// loop body holds no index arithmetic and no int-to-double conversion of
/// a weight. Each lane still adds the same products in ascending element
/// order, so the partial is bit-identical to a loop that walks the block
/// one element at a time.
///
/// noinline: the serial and parallel checksum paths must perform the exact
/// same floating-point operations. Inlined into two different contexts
/// (plain loop vs. the OpenMP-outlined lambda) the compiler may optimize
/// the block body differently per call site, producing bit-different
/// partials; a single out-of-line instantiation guarantees one codegen.
template <typename T>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
long double
checksum_block(const T* data, Index_type begin, Index_type len) {
  double w[kPeriod];  // w[m] is the weight of element begin + m + j * kPeriod
  for (Index_type m = 0; m < kPeriod; ++m) {
    w[m] = static_cast<double>((begin + m) % 7 + 1);
  }
  const T* p = data + begin;
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  Index_type k = 0;
  for (; k + kPeriod <= len; k += kPeriod) {
    for (Index_type m = 0; m < kPeriod; m += 4) {
      l0 += static_cast<double>(p[k + m]) * w[m];
      l1 += static_cast<double>(p[k + m + 1]) * w[m + 1];
      l2 += static_cast<double>(p[k + m + 2]) * w[m + 2];
      l3 += static_cast<double>(p[k + m + 3]) * w[m + 3];
    }
  }
  // Tail: fewer than kPeriod elements, starting on lane 0 and weight w[0].
  double lane[4] = {l0, l1, l2, l3};
  for (Index_type m = 0; k + m < len; ++m) {
    lane[m & 3] += static_cast<double>(p[k + m]) * w[m];
  }
  long double partial = static_cast<long double>(lane[0]);
  partial += static_cast<long double>(lane[1]);
  partial += static_cast<long double>(lane[2]);
  partial += static_cast<long double>(lane[3]);
  return partial;
}

/// Shared blocked checksum. The parallel path stores each block partial at
/// its block index and folds serially afterwards; the serial path folds as
/// it goes. Both perform the identical sequence of long double additions
/// (partial_0, partial_1, ...), so the result is thread-count invariant.
template <typename T>
long double checksum_blocked(const T* data, Index_type n) {
  const Index_type nblocks = (n + kBlock - 1) / kBlock;
  if (n >= mem::kParallelFillThreshold && omp_get_max_threads() > 1) {
    std::vector<long double> partials(static_cast<std::size_t>(nblocks));
    port::forall_blocked<port::omp_parallel_for_exec>(
        n, kBlock, [&](Index_type begin, Index_type len) {
          partials[static_cast<std::size_t>(begin / kBlock)] =
              checksum_block(data, begin, len);
        });
    long double sum = 0.0L;
    for (Index_type b = 0; b < nblocks; ++b) {
      sum += partials[static_cast<std::size_t>(b)];
    }
    return sum;
  }
  long double sum = 0.0L;
  for (Index_type b = 0; b < nblocks; ++b) {
    const Index_type begin = b * kBlock;
    sum += checksum_block(data, begin, std::min(kBlock, n - begin));
  }
  return sum;
}

}  // namespace

long double calc_checksum(const double* data, Index_type n) {
  return checksum_blocked(data, n);
}

long double calc_checksum(const int* data, Index_type n) {
  return checksum_blocked(data, n);
}

bool checksums_match(long double a, long double b, double rel_tol) {
  const long double diff = std::fabs(a - b);
  const long double scale = std::max({std::fabs(a), std::fabs(b), 1.0L});
  return diff <= static_cast<long double>(rel_tol) * scale;
}

long double relative_difference(long double a, long double b) {
  const long double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0L ? 0.0L : std::fabs(a - b) / scale;
}

long double reorder_bound(Index_type n) {
  return 2.0L * static_cast<long double>(n) * 0x1p-53L;
}

bool checksums_agree(long double a, long double b, ChecksumOrder order,
                     Index_type n) {
  if (order == ChecksumOrder::Exact) return a == b;
  return relative_difference(a, b) <= reorder_bound(n);
}

}  // namespace rperf::suite
