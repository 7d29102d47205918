#include "suite/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "faults/injector.hpp"
#include "instrument/hwc.hpp"
#include "instrument/trace_export.hpp"
#include "machine/machine.hpp"
#include "mem/pool.hpp"
#include "sandbox/sandbox.hpp"

namespace rperf::suite {

Executor::Executor(RunParams params)
    : params_(std::move(params)), checkpoint_(params_.output_dir) {
  kernels_ = make_kernels(params_);
}

RunStatus Executor::run_cell_once(const Cell& cell, cali::Channel& channel,
                                  RunResult& r) {
  cali::TraceSpan cell_span(
      cell_key(cell.kernel->name(), cell.vid, cell.tuning_name));
  r.hwc = hwc::Sample{};  // retries must not accumulate samples
  // Counter service scoped to this cell: attach is fail-open (perf
  // unavailable leaves the service inactive and the channel untouched)
  // and the destructor detaches on every exit path below. Because this
  // runs wherever the cell runs, pooled workers open their event groups
  // post-fork in the worker process — per-thread counters measure the
  // worker, not the supervisor.
  hwc::RegionCounterService hwc_service;
  if (params_.hwc) (void)hwc_service.attach(channel);
  KernelBase::Measurement m;
  try {
    m = cell.kernel->execute(cell.vid, cell.tuning, channel);
  } catch (const KernelTimeout& e) {
    r.error = e.what();
    return RunStatus::TimedOut;
  } catch (const std::exception& e) {
    r.error = e.what();
    return RunStatus::Failed;
  } catch (...) {
    r.error = "unknown exception";
    return RunStatus::Failed;
  }
  r.time_per_rep_sec = m.time_per_rep_sec;
  r.checksum = m.checksum;
  r.problem_size = cell.kernel->actual_prob_size();
  r.reps = cell.kernel->run_reps();
  r.setup_ms = m.setup_sec * 1e3;
  r.checksum_ms = m.checksum_sec * 1e3;
  r.pool_hits = m.pool_hits;
  if (params_.hwc) {
    if (hwc_service.regions_observed() > 0) {
      // Measured: the service already attributed multiplex-scaled PAPI
      // metrics to the kernel region at each end() hook.
      r.hwc = hwc_service.sample();
    } else {
      // Degrade to the simulator: analytic per-repetition counters from
      // the probed host model, scaled to the region totals the measured
      // path would have attributed (reps per pass x passes).
      const double scale = static_cast<double>(r.reps) *
                           static_cast<double>(std::max(1, params_.npasses));
      try {
        r.hwc = hwc::simulated_sample(cell.kernel->traits(),
                                      machine::local_host(), scale);
        for (const auto& [name, value] : r.hwc.values) {
          channel.attribute_metric_at(cell.kernel->name(), name, value);
        }
      } catch (const std::exception&) {
        // Even the model declined (no CPU host model): the cell still
        // passes, just without counter metrics.
      }
    }
  }
  if (!std::isfinite(static_cast<double>(r.checksum))) {
    r.error = "checksum is not finite";
    return RunStatus::ChecksumInvalid;
  }
  r.error.clear();
  return RunStatus::Passed;
}

void Executor::run() {
  results_.clear();
  profiles_.clear();
  crash_history_.clear();
  stopped_ = false;
  facts_ = RunFacts{};
  main_trace_ = cali::TraceData{};
  worker_traces_.clear();
  const auto run_start = std::chrono::steady_clock::now();

  if (params_.hwc) {
    // One probe, one actionable warning. The result is cached, so every
    // later attach (including post-fork in workers, which inherit the
    // parent's perf access) sees the same answer without re-probing.
    const hwc::Probe& probe = hwc::cached_probe();
    if (!probe.available) {
      facts_.hwc_reason = probe.reason;
      std::cerr << "warning: hardware counters unavailable — "
                << probe.reason
                << "; counter metrics degrade to the simulator "
                   "(hwc_source=simulated)\n";
    }
  }

  cali::TraceSink& sink = cali::TraceSink::instance();
  if (params_.trace) sink.enable();

  // (Re)arm the process-wide injector from this run's params; an empty
  // spec disarms it, so consecutive in-process runs are self-contained.
  faults::injector().configure(params_.fault_spec, params_.fault_seed);

  // Fresh memory-subsystem counters so per-run metadata describes this
  // sweep only (the pool keeps its cached chunks — that reuse is the point).
  mem::pool().reset_stats();

  // The sweep plan: every (kernel, variant, tuning) cell passing filters.
  std::vector<Cell> cells;
  for (auto& kernel : kernels_) {
    const std::size_t tunings = params_.run_tunings ? kernel->num_tunings() : 1;
    for (VariantID vid : kernel->variants()) {
      if (!params_.wants_variant(vid)) continue;
      for (std::size_t tuning = 0; tuning < tunings; ++tuning) {
        cells.push_back(
            {kernel.get(), vid, tuning, kernel->tunings()[tuning]});
      }
    }
  }

  std::map<std::string, RunResult> prior;
  if (params_.resume) prior = checkpoint_.load_progress();
  checkpoint_.start(params_.resume, run_start);
  if (params_.resume && !params_.output_dir.empty()) {
    // Crash history survives resume so quarantine sticks. A torn crash
    // record is not counted, so quarantine errs toward re-running.
    crash_history_ = checkpoint_.load_crashes(
        "crash record; quarantine counting stays conservative");
    // The on-disk profiles hold the restored cells' regions. Seeding
    // each slice with its profile lets the re-run cells fold in, so
    // --outdir and --store both get the complete slice.
    for (const Cell& cell : cells) {
      const auto key = std::make_pair(cell.vid, cell.tuning_name);
      const std::string path =
          params_.output_dir + "/" +
          cali::profile_file_name(to_string(cell.vid), cell.tuning_name);
      if (profiles_.count(key) == 0 && std::filesystem::exists(path)) {
        profiles_.emplace(key, cali::read_profile(path));
      }
    }
  }
  store_.open(params_);

  {
    cali::TraceSpan sweep_span("sweep");
    const std::vector<const Cell*> pending = settle_unexecuted(cells, prior);
    if (params_.isolate == IsolationMode::None) {
      run_in_process(pending);
    } else {
      run_pooled(pending);
    }
  }

  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - run_start)
                          .count();
  facts_.run_wall_sec = wall;
  if (params_.trace && sink.enabled()) {
    main_trace_ = sink.flush();
    sink.disable();
    double overhead = main_trace_.overhead_sec;
    for (const cali::TraceData& t : worker_traces_) overhead += t.overhead_sec;
    facts_.trace_overhead_pct = wall > 0.0 ? 100.0 * overhead / wall : 0.0;
  }
  if (params_.hwc && wall > 0.0) {
    double overhead = 0.0;
    for (const RunResult& r : results_) overhead += r.hwc.overhead_sec;
    facts_.hwc_overhead_pct = 100.0 * overhead / wall;
  }

  stamp_run_metadata(profiles_, params_, results_, facts_);
  // After this the run is durable and queryable via rperf-report --store.
  store_.finish(profiles_, results_, facts_);
}

void Executor::finalize(const RunResult& r) {
  sample_trace_counters();
  results_.push_back(r);
  store_.append(r);
  checkpoint_.append_progress(r, facts_.hwc_reason);
  if (r.status != RunStatus::Passed && r.status != RunStatus::Skipped &&
      !params_.keep_going) {
    stopped_ = true;
  }
}

void Executor::sample_trace_counters() {
  cali::TraceSink& sink = cali::TraceSink::instance();
  if (!sink.enabled()) return;
  sink.counter(sink.intern("pool_hits"),
               static_cast<double>(mem::pool().stats().reuse_hits));
  sink.counter(sink.intern("fault_fires"),
               static_cast<double>(faults::injector().fires()));
}

std::string Executor::skip_reason() const {
  if (stopped_) {
    return "sweep stopped by --no-keep-going after an earlier failure";
  }
  if (const int isig = sandbox::interrupt_signal(); isig != 0) {
    return "interrupted by " + sandbox::signal_name(isig) +
           "; checkpoint flushed";
  }
  return "";
}

std::chrono::milliseconds retry_delay(int backoff_ms, int consumed) {
  constexpr std::int64_t kCapMs = 2000;  // sandbox/pool.cpp's respawn cap
  const std::int64_t base = std::max(backoff_ms, 0);
  // 2^11 > kCapMs, so no doubling past the 11th changes the result.
  const int doublings = std::clamp(consumed - 1, 0, 11);
  return std::chrono::milliseconds(
      std::min(base << doublings, std::max(base, kCapMs)));
}

void Executor::retry_backoff(int consumed) const {
  if (params_.retry_backoff_ms > 0) {
    std::this_thread::sleep_for(
        retry_delay(params_.retry_backoff_ms, consumed));
  }
}

RunResult Executor::start_result(const Cell& cell) {
  RunResult r;
  r.kernel = cell.kernel->name();
  r.group = cell.kernel->group();
  r.variant = cell.vid;
  r.tuning = cell.tuning;
  r.tuning_name = cell.tuning_name;
  return r;
}

std::vector<const Executor::Cell*> Executor::settle_unexecuted(
    const std::vector<Cell>& cells,
    const std::map<std::string, RunResult>& prior) {
  std::vector<const Cell*> pending;
  for (const Cell& cell : cells) {
    RunResult r = start_result(cell);
    const std::string key = cell_key(r.kernel, r.variant, r.tuning_name);
    const auto restored = prior.find(key);
    const auto history = crash_history_.find(key);
    const int crashes =
        history == crash_history_.end() ? 0 : history->second.crashes;
    if (restored != prior.end() &&
        restored->second.status == RunStatus::Passed) {
      r = restored->second;
      r.group = cell.kernel->group();
      r.tuning = cell.tuning;
      r.restored = true;
    } else if (crashes >= params_.quarantine_after) {
      r.status = RunStatus::Skipped;
      r.error = "quarantined after " + std::to_string(crashes) +
                " crashes; see crashes.jsonl";
      checkpoint_.append_quarantine_skip(r, crashes);
    } else {
      pending.push_back(&cell);
      continue;
    }
    finalize(r);
  }
  return pending;
}

void Executor::run_cell_in_process(const Cell& cell, int consumed,
                                   RunResult& r) {
  // Guarded execution with retry-with-backoff. The cell runs into a
  // scratch channel committed to the per-variant profile only on a pass,
  // so failed cells never leave partial regions in the output.
  for (int attempt = consumed; attempt <= params_.retries; ++attempt) {
    if (attempt > 0) retry_backoff(attempt);
    cali::Channel scratch;
    r.attempts = attempt + 1;
    r.status = run_cell_once(cell, scratch, r);
    if (r.status == RunStatus::Passed) {
      cali::merge(profiles_[{cell.vid, cell.tuning_name}], scratch.profile());
      return;
    }
    // A budget violation is deterministic; retrying only doubles the
    // damage. Failures and corrupt checksums may be transient.
    if (r.status == RunStatus::TimedOut) return;
  }
}

void Executor::run_in_process(const std::vector<const Cell*>& cells) {
  for (const Cell* cell : cells) {
    RunResult r = start_result(*cell);
    if (std::string why = skip_reason(); !why.empty()) {
      r.status = RunStatus::Skipped;
      r.error = std::move(why);
    } else {
      run_cell_in_process(*cell, 0, r);
    }
    finalize(r);
  }
}

void Executor::write_trace(const std::string& path) const {
  std::vector<cali::TraceData> parts;
  parts.reserve(1 + worker_traces_.size());
  parts.push_back(main_trace_);
  parts.insert(parts.end(), worker_traces_.begin(), worker_traces_.end());
  std::map<std::string, std::string> meta;
  meta["suite"] = "rajaperf-repro";
  for (const auto& [key, value] :
       {std::pair{"trace_overhead_pct", facts_.trace_overhead_pct},
        std::pair{"run_wall_sec", facts_.run_wall_sec}}) {
    std::ostringstream os;
    os << value;
    meta[key] = os.str();
  }
  const std::string text = cali::chrome_trace_json(parts, meta);
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open trace file for writing: " + path);
  }
  os << text << '\n';
}

KernelBase* Executor::find_kernel(const std::string& name) const {
  for (const auto& k : kernels_) {
    if (k->name() == name) return k.get();
  }
  return nullptr;
}

std::vector<cali::Profile> Executor::profiles() const {
  std::vector<cali::Profile> out;
  out.reserve(profiles_.size());
  for (const auto& [key, profile] : profiles_) out.push_back(profile);
  return out;
}

void Executor::write_profiles() const {
  if (params_.output_dir.empty()) return;
  std::filesystem::create_directories(params_.output_dir);
  for (const auto& [key, profile] : profiles_) {
    const std::string name =
        cali::profile_file_name(to_string(key.first), key.second);
    cali::write_profile(profile, params_.output_dir + "/" + name);
  }
}

}  // namespace rperf::suite
