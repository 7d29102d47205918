#include "suite/reports.hpp"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <sstream>

#include "suite/checkpoint.hpp"
#include "suite/data_utils.hpp"

namespace rperf::suite {

namespace {

/// Short table marker for a non-passed cell.
const char* status_marker(RunStatus s) {
  switch (s) {
    case RunStatus::Passed: return "ok";
    case RunStatus::Failed: return "FAILED";
    case RunStatus::ChecksumInvalid: return "BADSUM";
    case RunStatus::TimedOut: return "TIMEOUT";
    case RunStatus::Skipped: return "SKIPPED";
    case RunStatus::Crashed: return "CRASHED";
    case RunStatus::OutOfMemory: return "OOM";
    case RunStatus::Killed: return "KILLED";
  }
  return "?";
}

/// The result for (kernel, variant, tuning); nullptr when not swept.
const RunResult* find_result(const std::vector<RunResult>& results,
                             const std::string& kernel, VariantID v,
                             const std::string& tuning_name = "default") {
  for (const auto& r : results) {
    if (r.kernel == kernel && r.variant == v && r.tuning_name == tuning_name) {
      return &r;
    }
  }
  return nullptr;
}

/// The kernel x variant table behind both reports: `passed` prints a
/// passed cell's value into the pending column width.
std::string results_table(
    const std::vector<RunResult>& results, const Kernels& kernels, int width,
    const std::function<void(std::ostream&, const RunResult&)>& passed) {
  // Variants present in the default-tuning results, in enum order.
  std::vector<VariantID> vids;
  for (VariantID v : all_variants()) {
    if (std::any_of(results.begin(), results.end(), [v](const RunResult& r) {
          return r.variant == v && r.tuning_name == "default";
        })) {
      vids.push_back(v);
    }
  }
  std::ostringstream os;
  os << std::left << std::setw(32) << "Kernel";
  for (VariantID v : vids) os << std::right << std::setw(width) << to_string(v);
  os << '\n';
  for (const auto& kernel : kernels) {
    os << std::left << std::setw(32) << kernel->name();
    for (VariantID v : vids) {
      const RunResult* r = find_result(results, kernel->name(), v);
      os << std::right << std::setw(width);
      if (r == nullptr) {
        os << "--";
      } else if (r->status == RunStatus::Passed) {
        passed(os, *r);
      } else {
        os << status_marker(r->status);
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace

std::map<RunStatus, std::size_t> count_statuses(
    const std::vector<RunResult>& results) {
  std::map<RunStatus, std::size_t> counts;
  for (RunStatus s : all_run_statuses()) counts[s] = 0;
  for (const auto& r : results) ++counts[r.status];
  return counts;
}

std::string status_report(const std::vector<RunResult>& results) {
  const auto counts = count_statuses(results);
  std::size_t restored = 0;
  for (const auto& r : results) {
    if (r.restored) ++restored;
  }
  std::ostringstream os;
  os << "cells: " << counts.at(RunStatus::Passed) << " passed, "
     << counts.at(RunStatus::Failed) << " failed, "
     << counts.at(RunStatus::ChecksumInvalid) << " checksum-invalid, "
     << counts.at(RunStatus::TimedOut) << " timed-out, "
     << counts.at(RunStatus::Crashed) << " crashed, "
     << counts.at(RunStatus::OutOfMemory) << " out-of-memory, "
     << counts.at(RunStatus::Killed) << " killed, "
     << counts.at(RunStatus::Skipped) << " skipped";
  if (restored > 0) os << " (" << restored << " restored from checkpoint)";
  os << '\n';
  for (const auto& r : results) {
    if (r.status == RunStatus::Passed) continue;
    os << "  " << to_string(r.status) << " "
       << cell_key(r.kernel, r.variant, r.tuning_name);
    if (r.attempts > 1) os << " after " << r.attempts << " attempts";
    if (!r.error.empty()) os << ": " << r.error;
    os << '\n';
  }
  return os.str();
}

std::string timing_report(const std::vector<RunResult>& results,
                          const Kernels& kernels) {
  return results_table(results, kernels, 16,
                       [](std::ostream& os, const RunResult& r) {
                         os << std::scientific << std::setprecision(3)
                            << r.time_per_rep_sec;
                       });
}

std::string checksum_report(const std::vector<RunResult>& results,
                            const Kernels& kernels) {
  return results_table(results, kernels, 22,
                       [](std::ostream& os, const RunResult& r) {
                         os << std::scientific << std::setprecision(12)
                            << static_cast<double>(r.checksum);
                       });
}

bool checksums_consistent(const std::vector<RunResult>& results,
                          const Kernels& kernels, double tolerance,
                          std::string* details) {
  // Variants of a kernel must agree within each tuning (different tunings
  // may legitimately compute different configurations). Cells that did not
  // pass are excluded: their failure is already reported as a RunStatus.
  bool ok = true;
  std::ostringstream os;
  for (const auto& kernel : kernels) {
    for (const std::string& tname : kernel->tunings()) {
      const RunResult* ref = nullptr;
      for (VariantID v : kernel->variants()) {
        const RunResult* r = find_result(results, kernel->name(), v, tname);
        if (r == nullptr || r->status != RunStatus::Passed) continue;
        if (ref == nullptr) {
          ref = r;
        } else if (!checksums_match(ref->checksum, r->checksum, tolerance)) {
          ok = false;
          os << kernel->name() << " [" << tname
             << "]: " << to_string(ref->variant) << "="
             << static_cast<double>(ref->checksum) << " vs " << to_string(v)
             << "=" << static_cast<double>(r->checksum) << '\n';
        }
      }
    }
  }
  if (details != nullptr) *details = os.str();
  return ok;
}

}  // namespace rperf::suite
