// Run metadata — what a finished run records about itself beyond its
// cells (the Adiak substitute): the metadata block of every profile, and
// the run's landing in the profile store under the content address of
// its config.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "instrument/profile.hpp"
#include "sandbox/pool.hpp"
#include "store/store.hpp"
#include "suite/run_params.hpp"
#include "suite/run_result.hpp"

namespace rperf::suite {

/// One profile per (variant, tuning name): what each slice of the sweep
/// produces.
using Profiles = std::map<std::pair<VariantID, std::string>, cali::Profile>;

/// Run-level facts the executor measures besides its cells.
struct RunFacts {
  double run_wall_sec = 0.0;
  double trace_overhead_pct = 0.0;
  std::string hwc_reason;  ///< why counters degraded ("" while measured)
  double hwc_overhead_pct = 0.0;
  sandbox::PoolStats pool;  ///< zeroed unless the run was sandboxed
  bool degraded = false;    ///< the pool fell back to in-process execution
};

/// Counter provenance of the results `counted` selects: "measured" or
/// "simulated" when every sample agrees, "mixed" when both occur, and ""
/// when none carries a sample (cells that failed before completing).
[[nodiscard]] std::string vote_hwc_source(
    const std::vector<RunResult>& results,
    const std::function<bool(const RunResult&)>& counted);

/// Stamp every profile with the run's metadata and its slice's failure
/// taxonomy.
void stamp_run_metadata(Profiles& profiles, const RunParams& params,
                        const std::vector<RunResult>& results,
                        const RunFacts& facts);

/// A run's landing in the profile store (--store). A store failure warns
/// once and disables the store for the rest of the run: losing durability
/// must not lose the sweep, whose results still land in --outdir.
class RunStore {
 public:
  /// Open (and if needed recover) the store in params.store_dir, then
  /// begin a run under the content address of the run's config; a no-op
  /// without --store.
  void open(const RunParams& params);
  /// Commit one terminal cell and its counter sample.
  void append(const RunResult& r);
  /// Land the per-variant profiles and the run summary, then seal the run
  /// into an immutable segment.
  void finish(const Profiles& profiles, const std::vector<RunResult>& results,
              const RunFacts& facts);

  /// Content address of the run ("" when off or failed before it began).
  [[nodiscard]] const std::string& run_id() const { return run_id_; }
  /// Cells durably committed.
  [[nodiscard]] std::size_t cells() const {
    return writer_ ? writer_->cells_committed() : 0;
  }
  /// Durability barriers (fsyncs) the store writer issued.
  [[nodiscard]] std::size_t barriers() const {
    return writer_ ? writer_->barriers() : 0;
  }
  /// First store failure ("" while the store works).
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  template <typename F>
  void guarded(F&& f);

  std::unique_ptr<store::StoreWriter> writer_;
  std::string run_id_;
  std::string error_;
};

}  // namespace rperf::suite
