#include "suite/executor.hpp"

#include <omp.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "faults/injector.hpp"
#include "instrument/hwc.hpp"
#include "instrument/json.hpp"
#include "instrument/trace_export.hpp"
#include "instrument/trace_sink.hpp"
#include "instrument/wire_codec.hpp"
#include "machine/machine.hpp"
#include "mem/pool.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/sandbox.hpp"
#include "sandbox/wire.hpp"
#include "suite/data_utils.hpp"
#include "util/fnv1a.hpp"

namespace rperf::suite {

namespace {

/// Trace span name for one sweep cell.
std::string cell_span_name(const std::string& kernel, VariantID vid,
                           const std::string& tuning_name) {
  return kernel + " [" + to_string(vid) + "/" + tuning_name + "]";
}

/// Sample the counter tracks (cumulative pool hits and injected faults)
/// onto the trace timeline; called after each finished cell so the tracks
/// step in sync with the spans.
void sample_trace_counters() {
  cali::TraceSink& sink = cali::TraceSink::instance();
  if (!sink.enabled()) return;
  sink.counter(sink.intern("pool_hits"),
               static_cast<double>(mem::pool().stats().reuse_hits));
  sink.counter(sink.intern("fault_fires"),
               static_cast<double>(faults::injector().fires()));
}

/// Stable identity of a sweep cell, used as the progress-file key.
std::string cell_key(const std::string& kernel, VariantID vid,
                     const std::string& tuning_name) {
  return kernel + "/" + to_string(vid) + "/" + tuning_name;
}

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

/// Stable dispatch-affinity key for a kernel name or cell key (FNV-1a,
/// forced odd so 0 keeps meaning "no affinity").
std::uint64_t affinity_key(const std::string& s) {
  return util::fnv1a64(s) | 1ull;
}

/// Counter provenance of the results `counted` selects: "measured" or
/// "simulated" when every sample agrees, "mixed" when both occur, and ""
/// when none carries a sample (cells that failed before completing).
template <typename Pred>
std::string vote_hwc_source(const std::vector<RunResult>& results,
                            Pred counted) {
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

/// Encode a dispatched cell as a wire blob: the cell, the OpenMP team the
/// supervisor admitted it with, and the parent's injector state.
std::string encode_job(const std::string& kernel, VariantID vid,
                       std::size_t tuning, const std::string& tuning_name,
                       int threads, const std::string& injector_state) {
  wire::Writer w;
  w.begin_blob();
  w.put_bytes(kernel);
  w.put_bytes(to_string(vid));
  w.put_u64(tuning);
  w.put_bytes(tuning_name);
  w.put_u32(static_cast<std::uint32_t>(threads));
  w.put_bytes(injector_state);
  return w.take();
}

/// Encode a worker's cell result as a wire blob. The checksum crosses as
/// raw long-double bits (put_f80), not hexfloat text.
std::string encode_cell_record(const RunResult& r,
                               const std::string& injector_state,
                               const cali::Profile* profile) {
  wire::Writer w;
  w.begin_blob();
  w.put_str(to_string(r.status));
  w.put_f64(r.time_per_rep_sec);
  w.put_f80(r.checksum);
  w.put_i64(static_cast<std::int64_t>(r.problem_size));
  w.put_i64(static_cast<std::int64_t>(r.reps));
  w.put_f64(r.setup_ms);
  w.put_f64(r.checksum_ms);
  w.put_u64(r.pool_hits);
  w.put_bytes(r.error);
  w.put_bytes(injector_state);
  w.put_u8(profile != nullptr ? 1 : 0);
  if (profile != nullptr) cali::profile_to_wire(*profile, w);
  w.put_u8(r.hwc.empty() ? 0 : 1);
  if (!r.hwc.empty()) hwc::sample_to_wire(r.hwc, w);
  return w.take();
}

/// Decode a worker's cell result (throws wire::Error on corruption, which
/// the caller maps to a malformed-record crash).
void decode_cell_record(const std::string& blob, RunResult& r,
                        std::string& injector_state,
                        std::optional<cali::Profile>& profile) {
  wire::Reader rd(blob);
  rd.expect_blob();
  r.status = run_status_from_string(rd.get_str());
  r.time_per_rep_sec = rd.get_f64();
  r.checksum = rd.get_f80();
  r.problem_size = static_cast<Index_type>(rd.get_i64());
  r.reps = static_cast<Index_type>(rd.get_i64());
  r.setup_ms = rd.get_f64();
  r.checksum_ms = rd.get_f64();
  r.pool_hits = rd.get_u64();
  r.error = rd.get_bytes();
  injector_state = rd.get_bytes();
  if (rd.get_u8() != 0) profile = cali::profile_from_wire(rd);
  if (rd.get_u8() != 0) r.hwc = hwc::sample_from_wire(rd);
}

/// Classify a job whose worker died before sending its result.
void decode_job_failure(const sandbox::JobFailure& f,
                        std::size_t sandbox_mem_mb, RunResult& r) {
  r.error = f.describe();
  if (f.reason == sandbox::FailReason::DeadlineKilled) {
    r.status = RunStatus::Killed;
  } else if (f.reason == sandbox::FailReason::ProtocolCorrupt) {
    r.status = RunStatus::Crashed;
  } else if (f.exited) {
    r.status = f.exit_code == sandbox::kOomExitCode ? RunStatus::OutOfMemory
                                                    : RunStatus::Crashed;
  } else if (f.signal == SIGXCPU) {
    // No pool sets RLIMIT_CPU, but one inherited from `ulimit -t` can
    // still end a worker this way.
    r.status = RunStatus::Killed;
    r.error = "worker exceeded its CPU limit (SIGXCPU)";
  } else if (f.signal == SIGKILL && sandbox_mem_mb > 0) {
    // The kernel OOM killer (or an unblockable kill under RLIMIT_AS
    // pressure) leaves SIGKILL as the only evidence.
    r.status = RunStatus::OutOfMemory;
    r.error = "worker killed (SIGKILL) under a memory limit";
  } else {
    r.status = RunStatus::Crashed;
  }
}

/// Fault kind a failed job definitionally fired, for budget fold-back:
/// a corrupt frame implies protocorrupt; process deaths imply
/// segv/abort/oom/hang.
std::optional<faults::FaultKind> implied_fault_kind(
    const sandbox::JobFailure& f, RunStatus status) {
  if (f.reason == sandbox::FailReason::ProtocolCorrupt) {
    return faults::FaultKind::ProtocolCorrupt;
  }
  switch (status) {
    case RunStatus::Crashed:
      // ASan converts fatal signals into exit(1); attribute by best guess.
      return f.signal == SIGABRT ? faults::FaultKind::Abort
                                 : faults::FaultKind::Segv;
    case RunStatus::OutOfMemory:
      return faults::FaultKind::Oom;
    case RunStatus::Killed:
      return faults::FaultKind::Hang;
    default:
      return std::nullopt;
  }
}

}  // namespace

Executor::Executor(RunParams params) : params_(std::move(params)) {
  kernels_ = make_kernels(params_);
}

std::string Executor::progress_path() const {
  if (params_.output_dir.empty()) return "";
  return params_.output_dir + "/progress.jsonl";
}

std::string Executor::crashes_path() const {
  if (params_.output_dir.empty()) return "";
  return params_.output_dir + "/crashes.jsonl";
}

RunStatus Executor::run_cell_once(const Cell& cell, cali::Channel& channel,
                                  RunResult& r) {
  r.hwc = hwc::Sample{};  // retries must not accumulate samples
  // Counter service scoped to this cell: attach is fail-open (perf
  // unavailable leaves the service inactive and the channel untouched)
  // and the destructor detaches on every exit path below. Because this
  // runs wherever the cell runs, pooled workers open their event groups
  // post-fork in the worker process — per-thread counters measure the
  // worker, not the supervisor.
  hwc::RegionCounterService hwc_service;
  if (params_.hwc) (void)hwc_service.attach(channel);
  try {
    cell.kernel->execute(cell.vid, cell.tuning, channel);
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
  r.time_per_rep_sec = cell.kernel->time_per_rep(cell.vid, cell.tuning);
  r.checksum = cell.kernel->checksum(cell.vid, cell.tuning);
  r.problem_size = cell.kernel->actual_prob_size();
  r.reps = cell.kernel->run_reps();
  r.setup_ms = cell.kernel->last_setup_sec() * 1e3;
  r.checksum_ms = cell.kernel->last_checksum_sec() * 1e3;
  r.pool_hits = cell.kernel->last_pool_hits();
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

void Executor::append_progress(const RunResult& r) {
  store_append_cell(r);
  const std::string path = progress_path();
  if (path.empty()) return;
  json::Object o;
  o["kernel"] = r.kernel;
  o["variant"] = to_string(r.variant);
  o["tuning"] = r.tuning_name;
  o["status"] = to_string(r.status);
  o["time_per_rep_sec"] = r.time_per_rep_sec;
  o["checksum"] = static_cast<double>(r.checksum);
  // Exact long-double round-trip so restored cells keep bit-identical
  // checksums (the readable double above is for humans and older readers).
  o["checksum_hex"] = sandbox::checksum_to_hex(r.checksum);
  o["problem_size"] = static_cast<std::int64_t>(r.problem_size);
  o["reps"] = static_cast<std::int64_t>(r.reps);
  o["attempts"] = r.attempts;
  o["setup_ms"] = r.setup_ms;
  o["checksum_ms"] = r.checksum_ms;
  o["pool_hits"] = static_cast<std::int64_t>(r.pool_hits);
  if (!r.hwc.empty()) {
    o["hwc_source"] = r.hwc.source;
    if (r.hwc.source != "measured" && !hwc_reason_.empty()) {
      o["hwc_unavailable_reason"] = hwc_reason_;
    }
  }
  // Monotonic milliseconds since run() started, so progress records line
  // up with the trace timeline and crashes.jsonl on one clock.
  o["t_ms"] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - run_start_)
                  .count();
  if (!r.error.empty()) o["error"] = r.error;
  std::string line = json::Value(std::move(o)).dump();
  line.push_back('\n');
  progress_buffer_ += line;
  // Crash-atomic checkpoint: rewrite the whole file through tmp + fsync +
  // rename(2). A crash at any byte leaves either the previous complete
  // checkpoint or this one — never the torn final line load_progress
  // would otherwise have to drop.
  try {
    store::atomic_write_file(path, progress_buffer_);
  } catch (const store::IoError& e) {
    throw std::runtime_error("cannot write progress file: " +
                             std::string(e.what()));
  }
}

void Executor::store_append_cell(const RunResult& r) {
  if (!store_writer_) return;
  try {
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
    store_writer_->add_cell(c);
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
      store_writer_->add_counters(cr);
    }
    store_writer_->commit();
  } catch (const store::StoreError& e) {
    // Losing durability must not lose the sweep: latch the store off,
    // keep running, and surface the failure in the run summary.
    store_error_ = e.what();
    std::cerr << "warning: profile store disabled: " << e.what() << "\n";
    store_writer_.reset();
  }
}

std::map<std::string, std::string> Executor::store_config() const {
  std::map<std::string, std::string> config;
  config["suite"] = "rajaperf-repro";
  config["size_factor"] = std::to_string(params_.size_factor);
  if (params_.size_override) {
    config["size"] = std::to_string(*params_.size_override);
  }
  config["reps_factor"] = std::to_string(params_.reps_factor);
  config["npasses"] = std::to_string(params_.npasses);
  config["tunings"] = params_.run_tunings ? "all" : "default";
  // Only when on, so pre-existing runs keep their content addresses.
  if (params_.hwc) config["hwc"] = "on";
  config["isolate"] = to_string(params_.isolate);
  config["workers"] = std::to_string(params_.workers);
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& p : parts) {
      if (!out.empty()) out += ",";
      out += p;
    }
    return out;
  };
  if (!params_.kernel_filter.empty()) {
    config["kernels"] = join(params_.kernel_filter);
  }
  if (!params_.group_filter.empty()) {
    std::vector<std::string> names;
    for (GroupID g : params_.group_filter) names.push_back(to_string(g));
    config["groups"] = join(names);
  }
  if (!params_.variant_filter.empty()) {
    std::vector<std::string> names;
    for (VariantID v : params_.variant_filter) names.push_back(to_string(v));
    config["variants"] = join(names);
  }
  if (!params_.fault_spec.empty()) {
    config["fault_spec"] = params_.fault_spec;
    config["fault_seed"] = std::to_string(params_.fault_seed);
  }
  // --resume is deliberately excluded: a resumed sweep is the same
  // logical run, so it content-addresses to the same run id.
  return config;
}

std::map<std::string, RunResult> Executor::load_progress() const {
  std::map<std::string, RunResult> out;
  const std::string path = progress_path();
  if (path.empty() || !std::filesystem::exists(path)) return out;
  std::ifstream is(path);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::Value::parse(line);
    } catch (const json::JsonError&) {
      // Torn record from a run that died mid-append (crash, power loss).
      // Drop it — the cell re-runs — but say so, since a silently shrunken
      // checkpoint looks like progress evaporating.
      std::cerr << "warning: " << path << ":" << line_no
                << ": dropping truncated checkpoint record; "
                   "the cell will be re-run\n";
      continue;
    }
    try {
      RunResult r;
      r.kernel = v.at("kernel").as_string();
      r.variant = variant_from_string(v.at("variant").as_string());
      r.tuning_name = v.at("tuning").as_string();
      r.status = run_status_from_string(v.at("status").as_string());
      r.time_per_rep_sec = v.number_or("time_per_rep_sec", -1.0);
      if (v.contains("checksum_hex")) {
        r.checksum =
            sandbox::checksum_from_hex(v.at("checksum_hex").as_string());
      } else {
        r.checksum = static_cast<long double>(v.number_or("checksum", 0.0));
      }
      r.problem_size =
          static_cast<Index_type>(v.number_or("problem_size", 0.0));
      r.reps = static_cast<Index_type>(v.number_or("reps", 0.0));
      r.setup_ms = v.number_or("setup_ms", 0.0);
      r.checksum_ms = v.number_or("checksum_ms", 0.0);
      r.pool_hits =
          static_cast<std::uint64_t>(v.number_or("pool_hits", 0.0));
      r.error = v.string_or("error", "");
      // Source only: a restored cell's counters were not observed by this
      // process, so values stay empty (no counter record re-lands in the
      // store) but the run metadata keeps an honest hwc_source.
      r.hwc.source = v.string_or("hwc_source", "");
      out[cell_key(r.kernel, r.variant, r.tuning_name)] = r;  // latest wins
    } catch (const std::exception&) {
      continue;  // unknown kernel/variant from an older build — re-run it
    }
  }
  return out;
}

std::map<std::string, int> Executor::load_crash_counts() const {
  std::map<std::string, int> out;
  const std::string path = crashes_path();
  if (path.empty() || !std::filesystem::exists(path)) return out;
  std::ifstream is(path);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::Value::parse(line);
    } catch (const json::JsonError&) {
      // Torn record from a run that died mid-append — same failure mode as
      // progress.jsonl. Warn and drop: the crash it described is not
      // counted, so quarantine errs toward re-running the cell.
      std::cerr << "warning: " << path << ":" << line_no
                << ": dropping truncated crash record; "
                   "quarantine counting stays conservative\n";
      continue;
    }
    try {
      if (v.string_or("kind", "crash") != "crash") continue;
      const std::string key =
          cell_key(v.at("kernel").as_string(),
                   variant_from_string(v.at("variant").as_string()),
                   v.at("tuning").as_string());
      ++out[key];
    } catch (const std::exception&) {
      continue;  // foreign record from an older build — not a crash count
    }
  }
  return out;
}

void Executor::run() {
  results_.clear();
  channels_.clear();
  crash_counts_.clear();
  stopped_ = false;
  pool_stats_ = sandbox::PoolStats{};
  degraded_ = false;
  main_trace_ = cali::TraceData{};
  worker_traces_.clear();
  run_wall_sec_ = 0.0;
  trace_overhead_pct_ = 0.0;
  hwc_reason_.clear();
  hwc_overhead_pct_ = 0.0;
  run_start_ = std::chrono::steady_clock::now();

  if (params_.hwc) {
    // One probe, one actionable warning. The result is cached, so every
    // later attach (including post-fork in workers, which inherit the
    // parent's perf access) sees the same answer without re-probing.
    const hwc::Probe& probe = hwc::cached_probe();
    if (!probe.available) {
      hwc_reason_ = probe.reason;
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
    for (VariantID vid : kernel->variants()) {
      if (!params_.wants_variant(vid)) continue;
      for (std::size_t tuning = 0; tuning < kernel->num_tunings();
           ++tuning) {
        if (!params_.run_tunings && tuning > 0) continue;
        cells.push_back(
            {kernel.get(), vid, tuning, kernel->tunings()[tuning]});
      }
    }
  }

  std::map<std::string, RunResult> prior;
  if (params_.resume) prior = load_progress();
  if (!params_.output_dir.empty()) {
    // Start a canonical checkpoint for this run; restored cells are
    // re-appended below, so the file always reflects the latest sweep.
    std::filesystem::create_directories(params_.output_dir);
    progress_buffer_.clear();
    std::ofstream(progress_path(), std::ios::trunc);
    if (params_.resume) {
      // Crash history survives resume so quarantine sticks.
      crash_counts_ = load_crash_counts();
    } else if (std::filesystem::exists(crashes_path())) {
      std::filesystem::remove(crashes_path());
    }
  }

  if (!params_.store_dir.empty()) {
    // Open (and if needed recover) the profile store, then land the run
    // under its content address. Store failures warn and disable — the
    // sweep itself must survive a broken disk.
    try {
      store_writer_ =
          std::make_unique<store::StoreWriter>(params_.store_dir);
      if (store_writer_->recovery().quarantined_bytes > 0) {
        std::cerr << "rperf-store: recovered torn journal tail ("
                  << store_writer_->recovery().quarantined_bytes
                  << " bytes quarantined to "
                  << store_writer_->recovery().quarantine_file << ")\n";
      }
      store_run_id_ = store_writer_->begin_run(store_config());
    } catch (const store::StoreError& e) {
      store_error_ = e.what();
      std::cerr << "warning: profile store disabled: " << e.what() << "\n";
      store_writer_.reset();
    }
  }

  {
    cali::TraceSpan sweep_span("sweep");
    const std::vector<const Cell*> pending = settle_unexecuted(cells, prior);
    if (params_.isolate == IsolationMode::None) {
      run_in_process(pending);
    } else {
      run_pooled(pending);
    }
  }

  run_wall_sec_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - run_start_)
                      .count();
  if (params_.trace && sink.enabled()) {
    main_trace_ = sink.flush();
    sink.disable();
    double overhead = main_trace_.overhead_sec;
    for (const cali::TraceData& t : worker_traces_) overhead += t.overhead_sec;
    trace_overhead_pct_ =
        run_wall_sec_ > 0.0 ? 100.0 * overhead / run_wall_sec_ : 0.0;
  }
  if (params_.hwc && run_wall_sec_ > 0.0) {
    double overhead = 0.0;
    for (const RunResult& r : results_) overhead += r.hwc.overhead_sec;
    hwc_overhead_pct_ = 100.0 * overhead / run_wall_sec_;
  }

  // Run-level metadata (the Adiak substitute), plus the failure taxonomy
  // of each (variant, tuning) slice of the sweep.
  const mem::PoolStats pool_stats = mem::pool().stats();
  for (auto& [key, channel] : channels_) {
    channel.set_metadata("variant", to_string(key.first));
    channel.set_metadata("tuning", key.second);
    channel.set_metadata("suite", "rajaperf-repro");
    channel.set_metadata("size_factor", params_.size_factor);
    if (!params_.fault_spec.empty()) {
      channel.set_metadata("fault_spec", params_.fault_spec);
      channel.set_metadata("fault_seed", std::to_string(params_.fault_seed));
    }
    if (params_.trace) {
      channel.set_metadata("trace_overhead_pct", trace_overhead_pct_);
    }
    if (params_.hwc) {
      // Slice-level source (a mix means e.g. a mid-run PMU failure); a
      // slice with no sample reports what the probe would give it.
      std::string source =
          vote_hwc_source(results_, [&key](const RunResult& r) {
            return r.variant == key.first && r.tuning_name == key.second;
          });
      if (source.empty()) {
        source = hwc_reason_.empty() ? "measured" : "simulated";
      }
      channel.set_metadata("hwc_source", source);
      if (!hwc_reason_.empty()) {
        channel.set_metadata("hwc_unavailable_reason", hwc_reason_);
      }
      channel.set_metadata("hwc_overhead_pct", hwc_overhead_pct_);
    }
    std::map<RunStatus, std::size_t> counts;
    for (const auto& r : results_) {
      if (r.variant == key.first && r.tuning_name == key.second) {
        ++counts[r.status];
      }
    }
    channel.set_metadata("cells_passed",
                         std::to_string(counts[RunStatus::Passed]));
    channel.set_metadata("cells_failed",
                         std::to_string(counts[RunStatus::Failed]));
    channel.set_metadata(
        "cells_checksum_invalid",
        std::to_string(counts[RunStatus::ChecksumInvalid]));
    channel.set_metadata("cells_timed_out",
                         std::to_string(counts[RunStatus::TimedOut]));
    channel.set_metadata("cells_skipped",
                         std::to_string(counts[RunStatus::Skipped]));
    channel.set_metadata("cells_crashed",
                         std::to_string(counts[RunStatus::Crashed]));
    channel.set_metadata("cells_out_of_memory",
                         std::to_string(counts[RunStatus::OutOfMemory]));
    channel.set_metadata("cells_killed",
                         std::to_string(counts[RunStatus::Killed]));
    if (params_.isolate != IsolationMode::None) {
      // Sandbox accounting: worker count and aggregate rusage, so a
      // profile records what its isolation cost (process-wide, same in
      // every slice).
      channel.set_metadata("isolate", to_string(params_.isolate));
      channel.set_metadata("sandbox_children",
                           std::to_string(pool_stats_.spawns));
      channel.set_metadata("sandbox_peak_child_rss_kb",
                           std::to_string(pool_stats_.peak_rss_kb));
      channel.set_metadata("sandbox_child_user_sec",
                           pool_stats_.child_user_sec);
      channel.set_metadata("sandbox_child_sys_sec", pool_stats_.child_sys_sec);
      channel.set_metadata("sandbox_degraded", degraded_ ? "true" : "false");
      if (params_.workers > 0) {
        // Worker-pool supervision summary (process-wide, same in every
        // slice): how many workers were spawned/recycled and why, so a
        // profile records what crash containment cost the sweep.
        channel.set_metadata("pool_workers", std::to_string(params_.workers));
        channel.set_metadata("pool_spawns",
                             std::to_string(pool_stats_.spawns));
        channel.set_metadata("pool_recycles",
                             std::to_string(pool_stats_.recycles));
        channel.set_metadata("pool_deadline_kills",
                             std::to_string(pool_stats_.deadline_kills));
        channel.set_metadata("pool_corrupt_frames",
                             std::to_string(pool_stats_.corrupt_frames));
        channel.set_metadata("pool_peak_queue_depth",
                             std::to_string(pool_stats_.peak_queue_depth));
        channel.set_metadata("pool_affinity_hits",
                             std::to_string(pool_stats_.affinity_hits));
      }
    }
    // Memory-subsystem summary: how much memory the sweep reserved and how
    // well setup amortized across cells (process-wide, same in every slice).
    channel.set_metadata("pool_bytes_reserved",
                         std::to_string(pool_stats.bytes_reserved()));
    channel.set_metadata("pool_high_water_bytes",
                         std::to_string(pool_stats.high_water_bytes));
    channel.set_metadata("pool_alloc_calls",
                         std::to_string(pool_stats.alloc_calls));
    channel.set_metadata("pool_reuse_hits",
                         std::to_string(pool_stats.reuse_hits));
    for (const auto& [k, v] : params_.metadata) {
      channel.set_metadata(k, v);
    }
  }

  if (store_writer_) {
    // Land the per-variant profiles and the run's aggregate counters,
    // then seal the journal into an immutable segment. After this the
    // run is durable and queryable via rperf-report --store.
    try {
      for (const auto& [key, channel] : channels_) {
        store_writer_->add_profile(to_string(key.first), key.second,
                                   cali::to_profile(channel));
      }
      std::map<std::string, double> summary;
      summary["wall_sec"] = run_wall_sec_;
      summary["cells"] = static_cast<double>(results_.size());
      summary["trace_overhead_pct"] = trace_overhead_pct_;
      summary["fault_fires"] =
          static_cast<double>(faults::injector().fires());
      store_writer_->add_trace_summary(summary);
      store_writer_->finish_run();
      // Seal summary on stderr: which segment the run landed in and
      // whether its query index (the manifest) made it to disk. Index
      // failures are fail-open — queries fall back to full scans — so
      // this is a warning, never a disabled store.
      const store::SealInfo& seal = store_writer_->last_seal();
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
    } catch (const store::StoreError& e) {
      store_error_ = e.what();
      std::cerr << "warning: profile store disabled: " << e.what() << "\n";
      store_writer_.reset();
    }
  }
}

std::string Executor::hwc_source() const {
  return vote_hwc_source(results_, [](const RunResult&) { return true; });
}

void Executor::finalize(const RunResult& r) {
  sample_trace_counters();
  results_.push_back(r);
  append_progress(r);
  if (r.status != RunStatus::Passed && r.status != RunStatus::Skipped &&
      !params_.keep_going) {
    stopped_ = true;
  }
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

void Executor::retry_backoff(int consumed) const {
  if (params_.retry_backoff_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        params_.retry_backoff_ms << (consumed - 1)));
  }
}

void Executor::append_crash_line(json::Object o) const {
  const std::string path = crashes_path();
  if (path.empty()) return;
  o["t_ms"] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - run_start_)
                  .count();
  std::ofstream os(path, std::ios::app);
  if (!os) return;  // forensics are best-effort; the sweep continues
  std::string line = json::Value(std::move(o)).dump();
  line.push_back('\n');
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
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
    const auto crashes = crash_counts_.find(key);
    if (restored != prior.end() &&
        restored->second.status == RunStatus::Passed) {
      r = restored->second;
      r.group = cell.kernel->group();
      r.tuning = cell.tuning;
      r.restored = true;
      cell.kernel->restore_result(cell.vid, cell.tuning, r.time_per_rep_sec,
                                  r.checksum);
    } else if (crashes != crash_counts_.end() &&
               crashes->second >= params_.quarantine_after) {
      r.status = RunStatus::Skipped;
      r.error = "quarantined after " + std::to_string(crashes->second) +
                " crashes; see crashes.jsonl";
      json::Object o;
      o["kind"] = "quarantine-skip";
      o["kernel"] = r.kernel;
      o["variant"] = to_string(r.variant);
      o["tuning"] = r.tuning_name;
      o["crashes"] = crashes->second;
      append_crash_line(std::move(o));
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
    {
      cali::TraceSpan cell_span(
          cell_span_name(r.kernel, cell.vid, cell.tuning_name));
      r.status = run_cell_once(cell, scratch, r);
    }
    if (r.status == RunStatus::Passed) {
      channels_[{cell.vid, cell.tuning_name}].merge(scratch);
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

std::string Executor::worker_run_cell(const std::string& payload) {
  wire::Reader rd(payload);
  rd.expect_blob();
  RunResult r;
  r.kernel = rd.get_bytes();
  r.variant = variant_from_string(rd.get_bytes());
  r.tuning = static_cast<std::size_t>(rd.get_u64());
  r.tuning_name = rd.get_bytes();
  // Run with the team the supervisor admitted: one thread for a Seq cell
  // (its setUp fills and checksums go serial, bit-identically), the
  // in-process team for an OpenMP cell, which runs alone.
  const int team = static_cast<int>(rd.get_u32());
  if (team > 0) omp_set_num_threads(team);
  // The job carries the parent's injector state as of dispatch time, so a
  // retried cell sees spent budgets instead of re-firing the fault that
  // killed its first worker.
  faults::injector().deserialize_state(rd.get_bytes());

  std::optional<cali::Profile> profile;
  KernelBase* kernel = find_kernel(r.kernel);
  if (kernel == nullptr) {
    r.status = RunStatus::Failed;
    r.error = "unknown kernel in job payload: " + r.kernel;
  } else {
    const Cell cell{kernel, r.variant, r.tuning, r.tuning_name};
    cali::Channel scratch;
    {
      cali::TraceSpan cell_span(
          cell_span_name(r.kernel, r.variant, r.tuning_name));
      r.status = run_cell_once(cell, scratch, r);
    }
    sample_trace_counters();
    if (r.status == RunStatus::Passed) {
      profile = cali::to_profile(scratch);
    }
  }

  // Post-job injector state rides back on every result so the parent's
  // fault schedule stays worker-count invariant.
  const std::string injector_state = faults::injector().serialize_state();

  // Wire fault: torn result. The frame goes out with a bad CRC; the
  // supervisor must reject the record and recycle this worker rather than
  // mis-parse it.
  if (faults::injector().fire_wire_fault(faults::FaultKind::ProtocolCorrupt,
                                         r.kernel)) {
    sandbox::WorkerPool::corrupt_next_frame();
  }
  return encode_cell_record(r, injector_state,
                            profile ? &*profile : nullptr);
}

void Executor::run_pooled(const std::vector<const Cell*>& cells) {
  struct PooledJob {
    const Cell* cell = nullptr;
    RunResult r;
    int attempts = 0;  // executions consumed (parent-authoritative)
    bool done = false;
  };

  std::vector<PooledJob> jobs;
  jobs.reserve(cells.size());
  for (const Cell* cell : cells) jobs.push_back({cell, start_result(*cell)});

  // --workers N keeps N workers across cells. Without it, --isolate
  // cell|kernel is one disposable worker, replaced whenever the affinity
  // key changes: keyed per cell, every cell gets a fresh process; keyed
  // per kernel, every kernel does.
  const bool disposable = params_.workers == 0;
  const bool key_per_cell =
      disposable && params_.isolate == IsolationMode::Cell;

  // Measured kernel loops must not preempt each other, so the pool admits
  // cells against a budget of the machine's cores: a Seq cell runs on one
  // thread and takes one core, an OpenMP cell runs the in-process team and
  // takes that many cores (all of them on a machine no wider than the
  // team). Reading the team size starts no OpenMP threads, so forking
  // stays safe.
  const int omp_team = omp_get_max_threads();
  auto team_of = [omp_team](VariantID v) {
    return is_openmp_variant(v) ? omp_team : 1;
  };

  // A job came back: requeue it while it has retries left, else settle it.
  auto settle = [&](PooledJob& p, bool retryable) {
    if (retryable && p.attempts <= params_.retries && !stopped_) {
      retry_backoff(p.attempts);
      return sandbox::Disposition::Retry;
    }
    finalize(p.r);
    p.done = true;
    return stopped_ ? sandbox::Disposition::Abort : sandbox::Disposition::Done;
  };

  sandbox::PoolClient client;
  client.on_worker_start = [] {
    cali::TraceSink& sink = cali::TraceSink::instance();
    if (sink.enabled()) sink.rezero_after_fork("rperf-worker");
  };
  client.run_job = [this](const std::string& payload) {
    return worker_run_cell(payload);
  };
  client.final_payload = [] {
    cali::TraceSink& sink = cali::TraceSink::instance();
    if (!sink.enabled()) return std::string();
    wire::Writer w;
    w.begin_blob();
    cali::trace_to_wire(sink.flush(), w);
    return w.take();
  };
  client.on_final = [this](const std::string& payload) {
    try {
      wire::Reader rd(payload);
      rd.expect_blob();
      worker_traces_.push_back(cali::trace_from_wire(rd));
    } catch (const std::exception&) {
      // Malformed chunk: the timeline loses one worker's spans; the
      // sweep's results are unaffected.
    }
  };
  client.before_dispatch = [&](sandbox::Job& job) {
    const PooledJob& p = jobs[job.id];
    // Current injector state, captured at dispatch — not enqueue — time,
    // so a retry after a fatal fire carries the decremented budget.
    job.payload = encode_job(p.r.kernel, p.cell->vid, p.cell->tuning,
                             p.r.tuning_name, team_of(p.cell->vid),
                             faults::injector().serialize_state());
  };
  client.on_result = [&](const sandbox::Job& job,
                         const std::string& result) -> sandbox::Disposition {
    PooledJob& p = jobs[job.id];
    p.r.attempts = ++p.attempts;
    try {
      std::string injector_state;
      std::optional<cali::Profile> profile;
      decode_cell_record(result, p.r, injector_state, profile);
      // Fold, not overwrite: this job may have been dispatched before
      // another worker's crash spent a budget it still carries.
      faults::injector().fold_result_state(injector_state);
      if (p.r.status == RunStatus::Passed) {
        if (profile) {
          const cali::Channel scratch = cali::channel_from_profile(*profile);
          channels_[{p.cell->vid, p.cell->tuning_name}].merge(scratch);
        }
        p.cell->kernel->restore_result(p.cell->vid, p.cell->tuning,
                                       p.r.time_per_rep_sec, p.r.checksum);
      }
    } catch (const std::exception& e) {
      p.r.status = RunStatus::Crashed;
      p.r.error = std::string("malformed worker record: ") + e.what();
    }
    return settle(p, p.r.status == RunStatus::Failed ||
                         p.r.status == RunStatus::ChecksumInvalid);
  };
  client.on_failure = [&](const sandbox::Job& job,
                          const sandbox::JobFailure& f)
      -> sandbox::Disposition {
    PooledJob& p = jobs[job.id];
    p.r.attempts = ++p.attempts;
    decode_job_failure(f, params_.sandbox_mem_mb, p.r);

    const std::string key = cell_key(p.r.kernel, p.r.variant, p.r.tuning_name);
    const int crashes = ++crash_counts_[key];
    const bool quarantined = crashes >= params_.quarantine_after;

    json::Object o;
    o["kind"] = "crash";
    o["kernel"] = p.r.kernel;
    o["variant"] = to_string(p.r.variant);
    o["tuning"] = p.r.tuning_name;
    o["status"] = to_string(p.r.status);
    o["reason"] = sandbox::to_string(f.reason);
    o["crashes"] = crashes;
    o["attempts"] = p.attempts;
    o["exit_code"] = f.exit_code;
    o["deadline_killed"] = f.reason == sandbox::FailReason::DeadlineKilled;
    if (!f.exited && f.signal != 0) {
      o["signal"] = f.signal;
      o["signal_name"] = sandbox::signal_name(f.signal);
    }
    o["error"] = p.r.error;
    if (!f.stderr_tail.empty()) o["stderr_tail"] = f.stderr_tail;
    o["max_rss_kb"] = static_cast<std::int64_t>(f.usage.max_rss_kb);
    o["user_sec"] = f.usage.user_sec;
    o["sys_sec"] = f.usage.sys_sec;
    o["quarantined"] = quarantined;
    append_crash_line(std::move(o));

    // The worker died before reporting, so its injector state is lost;
    // consume the budget the fatal fault definitionally spent.
    if (faults::injector().active()) {
      if (const auto kind = implied_fault_kind(f, p.r.status)) {
        faults::injector().note_external_fire(*kind, p.r.kernel);
      }
    }
    return settle(p, !quarantined && (p.r.status == RunStatus::Crashed ||
                                      p.r.status == RunStatus::OutOfMemory));
  };

  sandbox::PoolConfig cfg;
  cfg.workers = disposable ? 1 : params_.workers;
  cfg.disposable = disposable;
  cfg.job_deadline_sec = params_.max_cell_seconds;
  cfg.address_space_bytes = params_.sandbox_mem_mb << 20;
  // Affinity dispatch scans the pending queue for unclaimed keys, so give
  // it a window wider than the default 2x workers: enough to see past one
  // kernel's contiguous (variant, tuning) cells to the next kernel.
  cfg.queue_capacity = static_cast<std::size_t>(cfg.workers) * 8;

  // Seed the wire dictionary before the pool forks: every worker inherits
  // the sweep's vocabulary (statuses, kernel/region names, metric keys) by
  // memory image, so result records encode them as fixed-width refs with
  // no per-blob definitions — Caliper's "attributes established at hello
  // time", done by fork inheritance instead of a handshake.
  wire::Dictionary& d = wire::dict();
  for (const RunStatus s : all_run_statuses()) d.intern(to_string(s));
  for (const char* metric :
       {"reps", "bytes_read", "bytes_written", "flops", "problem_size"}) {
    d.intern(metric);
  }
  if (params_.hwc) {
    for (const std::string& name : hwc::papi_event_names()) d.intern(name);
    d.intern("measured");
    d.intern("simulated");
  }
  for (const PooledJob& p : jobs) {
    d.intern(p.r.kernel);
    d.intern(to_string(p.cell->vid));
    d.intern(p.r.tuning_name);
  }

  std::size_t next = 0;
  const auto source = [&]() -> std::optional<sandbox::Job> {
    if (stopped_ || next >= jobs.size()) return std::nullopt;
    const PooledJob& p = jobs[next];
    sandbox::Job job;
    // Cells of one kernel share a key, steering them to the worker whose
    // allocator arenas already hold that kernel's size classes; a
    // disposable pool keyed per cell gives every cell a worker of its own.
    job.affinity = affinity_key(
        key_per_cell ? cell_key(p.r.kernel, p.r.variant, p.r.tuning_name)
                     : p.r.kernel);
    job.cores = team_of(p.cell->vid);
    job.id = next++;
    return job;  // payload is filled by before_dispatch
  };

  sandbox::PoolOutcome outcome = sandbox::PoolOutcome::Completed;
  sandbox::WorkerPool pool(cfg, client);
  if (!jobs.empty() && skip_reason().empty()) {
    cali::TraceSpan pool_span("worker-pool");
    outcome = pool.run(source);
  }
  pool_stats_ = pool.stats();

  if (outcome == sandbox::PoolOutcome::SpawnFailed && skip_reason().empty()) {
    // Graceful degradation: the pool could not keep a single worker alive
    // (fork failure, respawn budgets exhausted). Finish the sweep
    // in-process rather than losing it. Safe with respect to the OpenMP
    // fork caveat — no parallel region has run in this process yet, and no
    // further forks follow. Crash containment is lost, and the run says
    // so: the "sandbox_degraded" metadata flag and each cell's record.
    degraded_ = true;
    std::cerr << "warning: worker pool unavailable ("
              << pool_stats_.spawn_failures
              << " spawn failures); degrading to in-process execution — "
                 "crash containment disabled for the rest of this sweep\n";
    for (PooledJob& p : jobs) {
      if (p.done) continue;
      if (!skip_reason().empty()) break;
      run_cell_in_process(*p.cell, p.attempts, p.r);
      finalize(p.r);
      p.done = true;
    }
  }

  // Anything still unresolved (interrupt, --no-keep-going abort, pool
  // failure mid-degradation) is recorded as skipped so every planned cell
  // has a terminal record.
  for (PooledJob& p : jobs) {
    if (p.done) continue;
    p.r.status = RunStatus::Skipped;
    p.r.error = skip_reason();
    if (p.r.error.empty()) p.r.error = "not executed: worker pool unavailable";
    finalize(p.r);
  }
}

void Executor::write_trace(const std::string& path) const {
  std::vector<cali::TraceData> parts;
  parts.reserve(1 + worker_traces_.size());
  parts.push_back(main_trace_);
  parts.insert(parts.end(), worker_traces_.begin(), worker_traces_.end());
  std::map<std::string, std::string> meta;
  meta["suite"] = "rajaperf-repro";
  {
    std::ostringstream os;
    os << trace_overhead_pct_;
    meta["trace_overhead_pct"] = os.str();
  }
  {
    std::ostringstream os;
    os << run_wall_sec_;
    meta["run_wall_sec"] = os.str();
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
  out.reserve(channels_.size());
  for (const auto& [key, channel] : channels_) {
    out.push_back(cali::to_profile(channel));
  }
  return out;
}

void Executor::write_profiles() const {
  if (params_.output_dir.empty()) return;
  std::filesystem::create_directories(params_.output_dir);
  for (const auto& [key, channel] : channels_) {
    const std::string path = params_.output_dir + "/" +
                             to_string(key.first) + "." + key.second +
                             ".cali.json";
    // Under --resume the channel holds only the cells that re-ran; the
    // on-disk profile holds exactly the restored (previously passed) cells,
    // so folding the channel into it keeps per-variant profiles complete.
    // Merging in that order lets this run's metadata win.
    if (params_.resume && std::filesystem::exists(path)) {
      cali::Channel merged =
          cali::channel_from_profile(cali::read_profile(path));
      merged.merge(channel);
      cali::write_profile(merged, path);
    } else {
      cali::write_profile(channel, path);
    }
  }
}

std::map<RunStatus, std::size_t> Executor::status_counts() const {
  std::map<RunStatus, std::size_t> counts;
  for (RunStatus s : all_run_statuses()) counts[s] = 0;
  for (const auto& r : results_) ++counts[r.status];
  return counts;
}

bool Executor::all_passed() const {
  for (const auto& r : results_) {
    if (r.status != RunStatus::Passed) return false;
  }
  return true;
}

std::string Executor::status_report() const {
  const auto counts = status_counts();
  std::size_t restored = 0;
  for (const auto& r : results_) {
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
  for (const auto& r : results_) {
    if (r.status == RunStatus::Passed) continue;
    os << "  " << to_string(r.status) << " " << r.kernel << " ["
       << to_string(r.variant) << "/" << r.tuning_name << "]";
    if (r.attempts > 1) os << " after " << r.attempts << " attempts";
    if (!r.error.empty()) os << ": " << r.error;
    os << '\n';
  }
  return os.str();
}

namespace {

/// Variants present in the sweep's default-tuning results, in enum order.
std::vector<VariantID> report_variants(const std::vector<RunResult>& results) {
  std::vector<VariantID> vids;
  for (VariantID v : all_variants()) {
    for (const auto& r : results) {
      if (r.variant == v && r.tuning_name == "default") {
        vids.push_back(v);
        break;
      }
    }
  }
  return vids;
}

/// Default-tuning result for (kernel, variant); nullptr when not swept.
const RunResult* find_result(const std::vector<RunResult>& results,
                             const std::string& kernel, VariantID v) {
  for (const auto& r : results) {
    if (r.kernel == kernel && r.variant == v && r.tuning_name == "default") {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

std::string Executor::timing_report() const {
  const std::vector<VariantID> vids = report_variants(results_);

  std::ostringstream os;
  os << std::left << std::setw(32) << "Kernel";
  for (VariantID v : vids) os << std::right << std::setw(16) << to_string(v);
  os << '\n';
  for (const auto& kernel : kernels_) {
    os << std::left << std::setw(32) << kernel->name();
    for (VariantID v : vids) {
      const RunResult* r = find_result(results_, kernel->name(), v);
      if (r != nullptr && r->status == RunStatus::Passed) {
        os << std::right << std::setw(16) << std::scientific
           << std::setprecision(3) << r->time_per_rep_sec;
      } else if (r != nullptr) {
        os << std::right << std::setw(16) << status_marker(r->status);
      } else {
        os << std::right << std::setw(16) << "--";
      }
    }
    os << '\n';
  }
  return os.str();
}

std::string Executor::checksum_report() const {
  const std::vector<VariantID> vids = report_variants(results_);

  std::ostringstream os;
  os << std::left << std::setw(32) << "Kernel";
  for (VariantID v : vids) os << std::right << std::setw(22) << to_string(v);
  os << '\n';
  for (const auto& kernel : kernels_) {
    os << std::left << std::setw(32) << kernel->name();
    for (VariantID v : vids) {
      const RunResult* r = find_result(results_, kernel->name(), v);
      if (r != nullptr && r->status == RunStatus::Passed) {
        os << std::right << std::setw(22) << std::scientific
           << std::setprecision(12) << static_cast<double>(r->checksum);
      } else if (r != nullptr) {
        os << std::right << std::setw(22) << status_marker(r->status);
      } else {
        os << std::right << std::setw(22) << "--";
      }
    }
    os << '\n';
  }
  return os.str();
}

bool Executor::checksums_consistent(std::string* details) const {
  // Variants of a kernel must agree within each tuning (different tunings
  // may legitimately compute different configurations). Cells that did not
  // pass are excluded: their failure is already reported as a RunStatus.
  auto cell_passed = [&](const std::string& kernel,
                         const std::string& tuning_name, VariantID v) {
    for (const auto& r : results_) {
      if (r.kernel == kernel && r.variant == v &&
          r.tuning_name == tuning_name) {
        return r.status == RunStatus::Passed;
      }
    }
    // No recorded result (e.g. kernel executed directly in tests): fall
    // back to the kernel's own record.
    return true;
  };

  bool ok = true;
  std::ostringstream os;
  for (const auto& kernel : kernels_) {
    for (std::size_t tuning = 0; tuning < kernel->num_tunings(); ++tuning) {
      const std::string& tname = kernel->tunings()[tuning];
      long double reference = 0.0L;
      bool have_reference = false;
      VariantID ref_vid = VariantID::Base_Seq;
      for (VariantID v : kernel->variants()) {
        if (!kernel->was_run(v, tuning)) continue;
        if (!cell_passed(kernel->name(), tname, v)) continue;
        if (!have_reference) {
          reference = kernel->checksum(v, tuning);
          ref_vid = v;
          have_reference = true;
          continue;
        }
        const long double cs = kernel->checksum(v, tuning);
        if (!checksums_match(reference, cs, params_.checksum_tolerance)) {
          ok = false;
          os << kernel->name() << " [" << tname
             << "]: " << to_string(ref_vid) << "="
             << static_cast<double>(reference) << " vs " << to_string(v)
             << "=" << static_cast<double>(cs) << '\n';
        }
      }
    }
  }
  if (details != nullptr) *details = os.str();
  return ok;
}

}  // namespace rperf::suite
