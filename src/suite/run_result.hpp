// RunResult — the record of one terminal sweep cell. The executor builds
// it; the checkpoint, the worker wire records, the store and the text
// reports each read or write it through their own seam.
#pragma once

#include <cstdint>
#include <string>

#include "counters/perf_event.hpp"
#include "suite/types.hpp"

namespace rperf::suite {

struct RunResult {
  std::string kernel;
  GroupID group = GroupID::Basic;
  VariantID variant = VariantID::Base_Seq;
  std::size_t tuning = 0;
  std::string tuning_name = "default";
  double time_per_rep_sec = -1.0;
  long double checksum = 0.0L;
  Index_type problem_size = 0;
  Index_type reps = 0;
  RunStatus status = RunStatus::Passed;
  std::string error;  ///< diagnostic for non-Passed statuses
  int attempts = 1;   ///< executions performed (> 1 after retries)
  bool restored = false;  ///< true when taken from progress.jsonl (--resume)

  // Setup-cost observability (rperf::mem): milliseconds spent initializing
  // data / computing checksums across all passes, and how many of the
  // working set's allocations the pool free lists served.
  double setup_ms = 0.0;
  double checksum_ms = 0.0;
  std::uint64_t pool_hits = 0;

  /// Hardware-counter totals for this cell (RunParams::hwc): measured via
  /// perf_event_open when available, simulated from the analytic model
  /// otherwise (hwc.source says which); empty() when --hwc was off or the
  /// cell never completed.
  hwc::Sample hwc;
};

}  // namespace rperf::suite
