// runtime-report — hierarchical text rendering of a profile, mirroring
// Caliper's built-in runtime-report service: one row per region, indented
// by nesting depth, with inclusive/exclusive time and the share of total
// runtime.
#pragma once

#include <string>

#include "instrument/profile.hpp"

namespace rperf::cali {

struct ReportOptions {
  /// Only show regions at or above this share of total time.
  double min_percent = 0.0;
  /// Truncate the tree below this depth (-1 = unlimited).
  int max_depth = -1;
  /// Also print one column per attributed metric found in the tree.
  bool show_metrics = false;
};

/// Render the hierarchical runtime report.
[[nodiscard]] std::string runtime_report(const Profile& profile,
                                         const ReportOptions& options = {});

}  // namespace rperf::cali
