// The checksum oracle: every execution path against every other, at
// several OpenMP team sizes, under each cell's checksum order class
// (suite::ChecksumOrder).
//
// Cells: every kernel carrying the Atomic, Reduction or Scan feature (the
// kernels whose adds OpenMP may order), every nested-loop kernel (the
// Kernel feature: collapse(2) nests, forall_2d and forall_3d), plus
// Stream_TRIAD as a streaming control, in all six variants and every
// tuning, at size factor 0.01.
// Paths: 2 persistent workers (--workers 2), disposable workers
// (--isolate cell), and in-process twice, each at team sizes 1, 2 and
// omp_get_max_threads(). Every pair of one cell's checksums must satisfy
// suite::checksums_agree: exact cells bit for bit everywhere, unordered
// cells within the reorder bound everywhere.
//
// OpenMP note: a forked copy of a live libgomp thread pool deadlocks (see
// tests/test_sandbox.cpp). Setting the team size starts no threads, so
// every forked leg runs first, before this process enters its first
// parallel region, and the in-process legs run last.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <iomanip>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "suite/data_utils.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"

namespace {

using namespace rperf;
using namespace rperf::suite;

/// Every kernel whose checksum may depend on the order of its adds, every
/// nested-loop kernel, plus Stream_TRIAD.
std::vector<std::string> oracle_kernels() {
  std::vector<std::string> names = {"Stream_TRIAD"};
  for (const auto& k : make_kernels(RunParams{})) {
    if (k->has_feature(FeatureID::Atomic) ||
        k->has_feature(FeatureID::Reduction) ||
        k->has_feature(FeatureID::Scan) ||
        k->has_feature(FeatureID::Kernel)) {
      names.push_back(k->name());
    }
  }
  return names;
}

RunParams oracle_params() {
  RunParams p;
  p.size_factor = 0.01;
  p.reps_factor = 0.1;
  p.min_reps = 2;
  p.retry_backoff_ms = 0;
  p.run_tunings = true;
  p.kernel_filter = oracle_kernels();
  return p;
}

struct Observation {
  std::string path;
  int team = 0;
  long double checksum = 0.0L;
};

struct OracleCell {
  ChecksumOrder order = ChecksumOrder::Exact;
  Index_type n = 0;
  std::vector<Observation> seen;
};

/// Every passed cell's checksum from each leg run, keyed by cell.
class Legs {
 public:
  void run(const std::string& path, int team, const RunParams& params) {
    omp_set_num_threads(team);
    Executor exec(params);
    exec.run();
    EXPECT_FALSE(exec.degraded()) << path << " fell back to in-process";
    std::map<std::string, const KernelBase*> kernels;
    for (const auto& k : exec.kernels()) kernels[k->name()] = k.get();
    for (const auto& r : exec.results()) {
      const std::string key =
          r.kernel + " " + to_string(r.variant) + "/" + r.tuning_name;
      if (r.status != RunStatus::Passed) {
        ADD_FAILURE() << key << " did not pass on " << path << " at "
                      << team << " threads: " << r.error;
        continue;
      }
      OracleCell& cell = cells[key];
      cell.order = kernels.at(r.kernel)->checksum_order(r.variant);
      cell.n = r.problem_size;
      cell.seen.push_back({path, team, r.checksum});
    }
    ++legs;
  }

  std::map<std::string, OracleCell> cells;
  std::size_t legs = 0;
};

std::string describe(const Observation& o) {
  std::ostringstream os;
  os << o.path << " at " << o.team << " threads gave "
     << std::setprecision(21) << o.checksum;
  return os.str();
}

TEST(ChecksumOracle, EveryPathAgreesUnderItsOrderClass) {
  // Read before any omp_set_num_threads call changes it.
  const int max_team = omp_get_max_threads();
  const std::set<int> teams = {1, 2, max_team};
  const RunParams in_process = oracle_params();
  RunParams persistent = in_process;
  persistent.isolate = IsolationMode::Cell;
  persistent.workers = 2;
  RunParams disposable = in_process;
  disposable.isolate = IsolationMode::Cell;

  Legs legs;
  for (int team : teams) {
    legs.run("2 persistent workers", team, persistent);
    legs.run("disposable workers", team, disposable);
  }
  for (int team : teams) {
    legs.run("in-process", team, in_process);
    legs.run("in-process again", team, in_process);
  }

  // 39 kernels x 6 variants, and the extra tunings.
  ASSERT_GE(legs.cells.size(), 39u * 6u);
  std::map<ChecksumOrder, std::size_t> per_class;
  for (const auto& [key, cell] : legs.cells) {
    ++per_class[cell.order];
    ASSERT_EQ(cell.seen.size(), legs.legs) << key << " missed a leg";
    for (std::size_t i = 0; i < cell.seen.size(); ++i) {
      for (std::size_t j = i + 1; j < cell.seen.size(); ++j) {
        const Observation& a = cell.seen[i];
        const Observation& b = cell.seen[j];
        EXPECT_TRUE(checksums_agree(a.checksum, b.checksum, cell.order, cell.n))
            << key << " (" << to_string(cell.order) << ", n=" << cell.n
            << "): " << describe(a) << ", " << describe(b)
            << "; relative difference "
            << relative_difference(a.checksum, b.checksum) << ", bound "
            << reorder_bound(cell.n);
      }
    }
  }
  // Both classes are exercised; which cells carry which class is pinned by
  // OnlyReorderingConstructsLeaveExact.
  EXPECT_EQ(per_class[ChecksumOrder::Unordered], 19u);
}

// The reorder bound separates reassociation from lost work: reordering a
// sum of n non-negative terms stays inside it, the same sum with one term
// left out does not. The terms are PI_REDUCE's midpoint quadrature
// dx / (1 + x^2), all within a factor 2 of each other, so leaving out
// even the smallest moves the sum by at least 1 / (2n) of itself.
TEST(ChecksumOracle, BoundRejectsASumWithOneTermLeftOut) {
  for (Index_type n : {Index_type{1000}, Index_type{5000},
                       Index_type{100000}}) {
    const double dx = 1.0 / static_cast<double>(n);
    std::vector<double> terms(static_cast<std::size_t>(n));
    for (Index_type i = 0; i < n; ++i) {
      const double x = (static_cast<double>(i) + 0.5) * dx;
      terms[static_cast<std::size_t>(i)] = dx / (1.0 + x * x);
    }
    const double in_order = std::accumulate(terms.begin(), terms.end(), 0.0);
    const double reversed =
        std::accumulate(terms.rbegin(), terms.rend(), 0.0);
    // Four strided partials folded last to first, as a 4-thread team
    // might combine them.
    double partial[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < terms.size(); ++i) {
      partial[i % 4] += terms[i];
    }
    const double strided = ((partial[3] + partial[2]) + partial[1]) +
                           partial[0];
    // The smallest term is the last one (x nearest 1).
    const double one_left_out =
        std::accumulate(terms.begin(), terms.end() - 1, 0.0);

    constexpr ChecksumOrder kUnordered = ChecksumOrder::Unordered;
    EXPECT_TRUE(checksums_agree(in_order, reversed, kUnordered, n)) << n;
    EXPECT_TRUE(checksums_agree(in_order, strided, kUnordered, n)) << n;
    EXPECT_FALSE(checksums_agree(in_order, one_left_out, kUnordered, n))
        << n << ": relative difference "
        << relative_difference(in_order, one_left_out) << ", bound "
        << reorder_bound(n);
    // An exact cell must match bit for bit.
    EXPECT_FALSE(checksums_agree(in_order, in_order + in_order * 0x1p-52,
                                 ChecksumOrder::Exact, n));
  }
}

// Only cells whose construct leaves the order of their adds to OpenMP are
// declared off Exact, and the oracle above covers each of them.
TEST(ChecksumOracle, OnlyReorderingConstructsLeaveExact) {
  constexpr VariantID kBase = VariantID::Base_OpenMP;
  constexpr VariantID kLambda = VariantID::Lambda_OpenMP;
  constexpr VariantID kRaja = VariantID::RAJA_OpenMP;
  std::map<std::string, std::map<VariantID, ChecksumOrder>> want;
  // `omp reduction` on doubles. RAJA's forall_reduce, like the OpenMP
  // scan, works on blocks fixed by n and stays exact.
  for (const char* k : {"Stream_DOT", "Basic_PI_REDUCE", "Basic_TRAP_INT",
                        "Basic_REDUCE_STRUCT", "Algorithm_REDUCE_SUM"}) {
    want[k] = {{kBase, ChecksumOrder::Unordered},
               {kLambda, ChecksumOrder::Unordered}};
  }
  // Double atomics into shared addresses.
  for (const char* k : {"Basic_PI_ATOMIC", "Basic_MULTI_REDUCE",
                        "Apps_NODAL_ACCUMULATION_3D"}) {
    want[k] = {{kBase, ChecksumOrder::Unordered},
               {kLambda, ChecksumOrder::Unordered},
               {kRaja, ChecksumOrder::Unordered}};
  }

  const std::vector<std::string> covered = oracle_kernels();
  for (const auto& k : make_kernels(RunParams{})) {
    for (VariantID v : all_variants()) {
      ChecksumOrder expected = ChecksumOrder::Exact;
      if (const auto it = want.find(k->name()); it != want.end()) {
        if (const auto jt = it->second.find(v); jt != it->second.end()) {
          expected = jt->second;
        }
      }
      EXPECT_EQ(to_string(k->checksum_order(v)), to_string(expected))
          << k->name() << " " << to_string(v);
      if (k->checksum_order(v) != ChecksumOrder::Exact) {
        EXPECT_NE(std::find(covered.begin(), covered.end(), k->name()),
                  covered.end())
            << k->name() << " is declared " << to_string(k->checksum_order(v))
            << " but the oracle does not run it";
      }
    }
  }
}

}  // namespace
