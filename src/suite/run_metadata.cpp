#include "suite/run_metadata.hpp"

#include <iostream>

#include "faults/injector.hpp"
#include "mem/pool.hpp"

namespace rperf::suite {

namespace {

/// The canonical config map the store content-addresses a run by.
std::map<std::string, std::string> store_config(const RunParams& params) {
  std::map<std::string, std::string> config;
  config["suite"] = "rajaperf-repro";
  config["size_factor"] = std::to_string(params.size_factor);
  if (params.size_override) {
    config["size"] = std::to_string(*params.size_override);
  }
  config["reps_factor"] = std::to_string(params.reps_factor);
  config["npasses"] = std::to_string(params.npasses);
  config["tunings"] = params.run_tunings ? "all" : "default";
  // Only when on, so pre-existing runs keep their content addresses.
  if (params.hwc) config["hwc"] = "on";
  config["isolate"] = to_string(params.isolate);
  config["workers"] = std::to_string(params.workers);
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& p : parts) {
      if (!out.empty()) out += ",";
      out += p;
    }
    return out;
  };
  if (!params.kernel_filter.empty()) {
    config["kernels"] = join(params.kernel_filter);
  }
  if (!params.group_filter.empty()) {
    std::vector<std::string> names;
    for (GroupID g : params.group_filter) names.push_back(to_string(g));
    config["groups"] = join(names);
  }
  if (!params.variant_filter.empty()) {
    std::vector<std::string> names;
    for (VariantID v : params.variant_filter) names.push_back(to_string(v));
    config["variants"] = join(names);
  }
  if (!params.fault_spec.empty()) {
    config["fault_spec"] = params.fault_spec;
    config["fault_seed"] = std::to_string(params.fault_seed);
  }
  // --resume is deliberately excluded: a resumed sweep is the same
  // logical run, so it content-addresses to the same run id.
  return config;
}

}  // namespace

std::string vote_hwc_source(
    const std::vector<RunResult>& results,
    const std::function<bool(const RunResult&)>& counted) {
  bool any_measured = false;
  bool any_simulated = false;
  for (const RunResult& r : results) {
    if (!counted(r)) continue;
    if (r.hwc.source == "measured") any_measured = true;
    if (r.hwc.source == "simulated") any_simulated = true;
  }
  if (any_measured && any_simulated) return "mixed";
  if (any_measured) return "measured";
  if (any_simulated) return "simulated";
  return "";
}

void stamp_run_metadata(Profiles& profiles, const RunParams& params,
                        const std::vector<RunResult>& results,
                        const RunFacts& facts) {
  static const std::pair<RunStatus, const char*> kCellCounts[] = {
      {RunStatus::Passed, "cells_passed"},
      {RunStatus::Failed, "cells_failed"},
      {RunStatus::ChecksumInvalid, "cells_checksum_invalid"},
      {RunStatus::TimedOut, "cells_timed_out"},
      {RunStatus::Skipped, "cells_skipped"},
      {RunStatus::Crashed, "cells_crashed"},
      {RunStatus::OutOfMemory, "cells_out_of_memory"},
      {RunStatus::Killed, "cells_killed"}};
  const sandbox::PoolStats& pool = facts.pool;
  // Sandbox, worker-pool and memory summaries are process-wide, the same
  // in every slice: what isolation and crash containment cost the sweep,
  // how much memory it reserved and how well setup amortized across cells.
  const std::pair<const char*, std::size_t> worker_pool[] = {
      {"pool_workers", static_cast<std::size_t>(params.workers)},
      {"pool_spawns", pool.spawns},
      {"pool_recycles", pool.recycles},
      {"pool_deadline_kills", pool.deadline_kills},
      {"pool_corrupt_frames", pool.corrupt_frames},
      {"pool_peak_queue_depth", pool.peak_queue_depth},
      {"pool_affinity_hits", pool.affinity_hits}};
  const mem::PoolStats mem_stats = mem::pool().stats();
  const std::pair<const char*, std::size_t> memory[] = {
      {"pool_bytes_reserved", mem_stats.bytes_reserved()},
      {"pool_high_water_bytes", mem_stats.high_water_bytes},
      {"pool_alloc_calls", mem_stats.alloc_calls},
      {"pool_reuse_hits", mem_stats.reuse_hits}};

  for (auto& [key, profile] : profiles) {
    const auto in_slice = [&key = key](const RunResult& r) {
      return r.variant == key.first && r.tuning_name == key.second;
    };
    std::map<std::string, std::string>& meta = profile.metadata;
    meta["variant"] = to_string(key.first);
    meta["tuning"] = key.second;
    meta["suite"] = "rajaperf-repro";
    meta["size_factor"] = cali::metadata_text(params.size_factor);
    if (!params.fault_spec.empty()) {
      meta["fault_spec"] = params.fault_spec;
      meta["fault_seed"] = std::to_string(params.fault_seed);
    }
    if (params.trace) {
      meta["trace_overhead_pct"] =
          cali::metadata_text(facts.trace_overhead_pct);
    }
    if (params.hwc) {
      // Slice-level source (a mix means e.g. a mid-run PMU failure); a
      // slice with no sample reports what the probe would give it.
      std::string source = vote_hwc_source(results, in_slice);
      if (source.empty()) {
        source = facts.hwc_reason.empty() ? "measured" : "simulated";
      }
      meta["hwc_source"] = source;
      if (!facts.hwc_reason.empty()) {
        meta["hwc_unavailable_reason"] = facts.hwc_reason;
      }
      meta["hwc_overhead_pct"] = cali::metadata_text(facts.hwc_overhead_pct);
    }
    std::map<RunStatus, std::size_t> counts;
    for (const RunResult& r : results) {
      if (in_slice(r)) ++counts[r.status];
    }
    for (const auto& [status, name] : kCellCounts) {
      meta[name] = std::to_string(counts[status]);
    }
    if (params.isolate != IsolationMode::None) {
      meta["isolate"] = to_string(params.isolate);
      meta["sandbox_children"] = std::to_string(pool.spawns);
      meta["sandbox_peak_child_rss_kb"] = std::to_string(pool.peak_rss_kb);
      meta["sandbox_child_user_sec"] =
          cali::metadata_text(pool.child_user_sec);
      meta["sandbox_child_sys_sec"] = cali::metadata_text(pool.child_sys_sec);
      meta["sandbox_degraded"] = facts.degraded ? "true" : "false";
      if (params.workers > 0) {
        for (const auto& [name, value] : worker_pool) {
          meta[name] = std::to_string(value);
        }
      }
    }
    for (const auto& [name, value] : memory) {
      meta[name] = std::to_string(value);
    }
    for (const auto& [k, v] : params.metadata) meta[k] = v;
  }
}

template <typename F>
void RunStore::guarded(F&& f) {
  try {
    f();
  } catch (const store::StoreError& e) {
    error_ = e.what();
    std::cerr << "warning: profile store disabled: " << e.what() << "\n";
    writer_.reset();
  }
}

void RunStore::open(const RunParams& params) {
  if (params.store_dir.empty()) return;
  guarded([&] {
    writer_ = std::make_unique<store::StoreWriter>(params.store_dir);
    const store::RecoveryInfo& recovery = writer_->recovery();
    if (recovery.quarantined_bytes > 0) {
      std::cerr << "rperf-store: recovered torn journal tail ("
                << recovery.quarantined_bytes << " bytes quarantined to "
                << recovery.quarantine_file << ")\n";
    }
    run_id_ = writer_->begin_run(store_config(params));
  });
}

void RunStore::append(const RunResult& r) {
  if (!writer_) return;
  guarded([&] {
    store::CellRecord c;
    c.kernel = r.kernel;
    c.variant = to_string(r.variant);
    c.tuning = r.tuning_name;
    c.status = to_string(r.status);
    c.time_per_rep_sec = r.time_per_rep_sec;
    c.checksum = r.checksum;  // raw long-double bits round-trip in the store
    c.problem_size = static_cast<std::int64_t>(r.problem_size);
    c.reps = static_cast<std::int64_t>(r.reps);
    c.attempts = static_cast<std::uint32_t>(r.attempts);
    c.error = r.error;
    writer_->add_cell(c);
    if (!r.hwc.values.empty()) {
      store::CounterRecord cr;
      cr.kernel = r.kernel;
      cr.variant = to_string(r.variant);
      cr.tuning = r.tuning_name;
      cr.source = r.hwc.source;
      cr.time_enabled_ns = r.hwc.time_enabled_ns;
      cr.time_running_ns = r.hwc.time_running_ns;
      cr.overhead_sec = r.hwc.overhead_sec;
      cr.values = r.hwc.values;
      writer_->add_counters(cr);
    }
    writer_->commit();
  });
}

void RunStore::finish(const Profiles& profiles,
                      const std::vector<RunResult>& results,
                      const RunFacts& facts) {
  if (!writer_) return;
  guarded([&] {
    for (const auto& [key, profile] : profiles) {
      writer_->add_profile(to_string(key.first), key.second, profile);
    }
    std::map<std::string, double> summary;
    summary["wall_sec"] = facts.run_wall_sec;
    summary["cells"] = static_cast<double>(results.size());
    summary["trace_overhead_pct"] = facts.trace_overhead_pct;
    summary["fault_fires"] = static_cast<double>(faults::injector().fires());
    writer_->add_trace_summary(summary);
    writer_->finish_run();
    // Which segment the run landed in and whether its query index (the
    // manifest) made it to disk. Index failures are fail-open — queries
    // fall back to full scans — so this warns, never disables the store.
    const store::SealInfo& seal = writer_->last_seal();
    if (!seal.segment.empty()) {
      std::cerr << "rperf-store: sealed " << seal.segment << " ("
                << seal.runs_indexed << " run(s) indexed, manifest "
                << seal.manifest_runs << " run(s))\n";
      if (!seal.manifest_ok) {
        std::cerr << "warning: store index degraded (queries fall back "
                     "to full scans): "
                  << seal.index_error << "\n";
      }
    }
  });
}

}  // namespace rperf::suite
