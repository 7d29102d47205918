// The text reports of a sweep, rendered from its results alone: the
// status taxonomy, the timing and checksum tables (one row per kernel, one
// column per variant swept at the default tuning), and the cross-variant
// checksum agreement check.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "suite/kernel_base.hpp"
#include "suite/run_result.hpp"

namespace rperf::suite {

using Kernels = std::vector<std::unique_ptr<KernelBase>>;

/// Cell counts per terminal status (zero-count statuses included).
[[nodiscard]] std::map<RunStatus, std::size_t> count_statuses(
    const std::vector<RunResult>& results);
/// One line per non-passed cell plus a summary count line.
[[nodiscard]] std::string status_report(const std::vector<RunResult>& results);
/// Seconds per repetition; non-passed cells show their status marker and
/// cells never swept "--". Rows follow `kernels`.
[[nodiscard]] std::string timing_report(const std::vector<RunResult>& results,
                                        const Kernels& kernels);
/// Checksums, with the same markers as timing_report.
[[nodiscard]] std::string checksum_report(
    const std::vector<RunResult>& results, const Kernels& kernels);
/// True when the passed variants of every kernel agree within `tolerance`
/// at each tuning; `details` (when non-null) receives the mismatches.
[[nodiscard]] bool checksums_consistent(const std::vector<RunResult>& results,
                                        const Kernels& kernels,
                                        double tolerance, std::string* details);

}  // namespace rperf::suite
