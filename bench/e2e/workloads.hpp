// The four rperf_bench workloads. Each runs in its own process (see
// rperf_bench.cpp), drives the program only through public entry points,
// and fills a WorkloadResult: every catalogue metric, the operations it
// attempted, and the ones that failed a correctness check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"

namespace rperf::bench {

struct Options {
  std::uint64_t seed = 1;
  /// Length of the timed closed loop. The untraced pass always gets the
  /// whole budget; a traced pass (trace = true) runs after it on a
  /// shorter one.
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and minimal repetition counts: every metric is produced,
  /// none is meaningful as a measurement.
  bool smoke = false;
  /// Working directory for profile dirs and stores; removed afterwards.
  std::string workdir;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few correctness failures, for the log.
  std::vector<std::string> errors;
  Metrics metrics;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Run sweep_inproc, sweep_pooled or kernels_on (`name`), or store_ledger.
/// `rec` is null unless opt.trace; the traced pass records its spans in it.
void run_sweep_workload(const std::string& name, const Options& opt,
                        SpanRecorder* rec, WorkloadResult& out);
void run_store_ledger(const Options& opt, SpanRecorder* rec,
                      WorkloadResult& out);

}  // namespace rperf::bench
