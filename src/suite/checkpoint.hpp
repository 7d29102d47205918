// Checkpoint — a sweep's two JSON-lines files in --outdir, and the one
// owner of their formats:
//
//   progress.jsonl  one record per terminal cell, appended and fsync'd
//                   before the next dispatch decision; --resume restores
//                   the cells it records as Passed;
//   crashes.jsonl   one best-effort forensics record per worker death
//                   ("crash") or quarantined cell ("quarantine-skip");
//                   --resume re-reads the crash counts so quarantine
//                   sticks.
//
// Records carry t_ms, monotonic milliseconds since the run started, so
// both files line up with the trace timeline. A crash mid-append tears
// only a file's final line, which the loads drop with a warning.
#pragma once

#include <chrono>
#include <map>
#include <string>

#include "instrument/json.hpp"
#include "sandbox/pool.hpp"
#include "store/io.hpp"
#include "suite/run_result.hpp"

namespace rperf::suite {

/// Stable identity of a sweep cell as every artifact prints it,
/// "kernel [variant/tuning]": the key of both files' loads.
[[nodiscard]] std::string cell_key(const std::string& kernel,
                                   const std::string& variant,
                                   const std::string& tuning_name);
[[nodiscard]] inline std::string cell_key(const std::string& kernel,
                                          VariantID vid,
                                          const std::string& tuning_name) {
  return cell_key(kernel, to_string(vid), tuning_name);
}

/// Exact long-double round-trip for checksums in progress.jsonl: JSON
/// numbers are doubles, so records carry a C99 hexfloat string too.
[[nodiscard]] std::string checksum_to_hex(long double v);
[[nodiscard]] long double checksum_from_hex(const std::string& s);

/// What crashes.jsonl records about one cell.
struct CellCrashes {
  int crashes = 0;           ///< worker deaths ("crash" records)
  std::string last_status;   ///< RunStatus of the last death
  std::string last_signal;   ///< its signal name, or "exit N"
  bool quarantined = false;  ///< a death or a skip quarantined the cell
};

class Checkpoint {
 public:
  /// Both files live in `dir`. With "" the checkpoint is off: paths are
  /// "", loads are empty and appends do nothing.
  explicit Checkpoint(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] std::string progress_path() const;
  [[nodiscard]] std::string crashes_path() const;

  /// The latest progress record of each cell, by cell_key.
  [[nodiscard]] std::map<std::string, RunResult> load_progress() const;
  /// Every cell crashes.jsonl names, by cell_key. A record torn by a
  /// crash mid-append is dropped with "warning: <path>:<line>: dropping
  /// truncated <what>" on stderr.
  [[nodiscard]] std::map<std::string, CellCrashes> load_crashes(
      const std::string& what) const;

  /// Start a run's checkpoint, timed from `epoch`: truncate
  /// progress.jsonl, which drops any torn tail, and make its directory
  /// entry durable; crashes.jsonl survives only a resume. Throws
  /// std::runtime_error when progress.jsonl cannot be written.
  void start(bool resume, std::chrono::steady_clock::time_point epoch);
  /// Append one terminal cell and fsync it; `hwc_reason` is why counters
  /// degraded ("" while measured). Throws std::runtime_error on failure.
  void append_progress(const RunResult& r, const std::string& hwc_reason);
  /// Record a worker death: its cell's crash count so far and whether
  /// that count quarantined the cell.
  void append_crash(const RunResult& r, const sandbox::JobFailure& f,
                    int crashes, bool quarantined) const;
  /// Record that a cell quarantined after `crashes` crashes was skipped.
  void append_quarantine_skip(const RunResult& r, int crashes) const;

 private:
  void append_crash_line(json::Object o) const;

  std::string dir_;
  store::AppendFile progress_file_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace rperf::suite
