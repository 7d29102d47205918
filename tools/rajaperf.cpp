// rajaperf — the standalone suite driver (the RAJAPerf executable).
//
//   rajaperf [run options] [--report timing|checksum|both] [--tunings]
//   rajaperf --list                       enumerate kernels
//   rajaperf --simulate MACHINE [...]     predicted run on a Table II system
//
// Examples:
//   rajaperf --groups Stream,Lcals --npasses 3 --outdir out/
//   rajaperf --kernels Basic_MAT_MAT_SHARED --tunings
//   rajaperf --simulate EPYC-MI250X
//
// Exit codes:
//   0  all cells passed, checksums consistent
//   1  cross-variant checksum mismatch
//   2  bad arguments / setup error (diagnostic on stderr)
//   4  one or more cells Failed / ChecksumInvalid / TimedOut / Crashed /
//      OutOfMemory / Killed / Skipped
//   5  unexpected runtime error (diagnostic on stderr)
//   70 unknown (non-std::exception) error
//   130 / 143  interrupted by SIGINT / SIGTERM (128+signal); reports print
//      and the checkpoint + profiles are flushed first, so --resume works
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/simulate.hpp"
#include "instrument/config.hpp"
#include "instrument/report.hpp"
#include "mem/pool.hpp"
#include "sandbox/sandbox.hpp"
#include "suite/executor.hpp"

namespace {

int list_kernels() {
  rperf::suite::RunParams params;
  params.size_factor = 0.001;
  std::printf("%-34s %-10s %-8s %s\n", "Kernel", "Group", "Cmplx",
              "Tunings");
  for (const auto& name : rperf::suite::all_kernel_names()) {
    const auto k = rperf::suite::make_kernel(name, params);
    std::string tunings;
    for (const auto& t : k->tunings()) {
      if (!tunings.empty()) tunings += ",";
      tunings += t;
    }
    std::printf("%-34s %-10s %-8s %s\n", k->name().c_str(),
                rperf::suite::to_string(k->group()).c_str(),
                rperf::suite::to_string(k->complexity()).c_str(),
                tunings.c_str());
  }
  return 0;
}

int simulate(const std::string& machine_name) {
  const auto& m = rperf::machine::by_shorthand(machine_name);
  const auto sims = rperf::analysis::simulate_suite(m);
  std::printf("Simulated suite on %s (%s), problem size %lld per node\n",
              m.shorthand.c_str(), m.architecture.c_str(),
              static_cast<long long>(rperf::analysis::kPaperProblemSize));
  std::printf("%-34s %12s %12s %12s %9s\n", "Kernel", "time (ms)", "GB/s",
              "GFLOP/s", "memB");
  for (const auto& r : sims) {
    std::printf("%-34s %12.4f %12.1f %12.1f %9.3f\n", r.kernel.c_str(),
                r.prediction.time_sec * 1e3,
                (r.prediction.read_bw + r.prediction.write_bw) / 1e9,
                r.prediction.flop_rate / 1e9,
                r.prediction.tma.memory_bound);
  }
  return 0;
}

/// The runtime-report options a --caliper config asks for. rajaperf
/// implements only runtime-report, so a malformed config, any other spec or
/// a min_percent that is not one finite number >= 0 is a usage error.
rperf::cali::ReportOptions caliper_report_options(const std::string& config) {
  using rperf::cali::ConfigError;
  rperf::cali::ConfigSpec spec;
  try {
    const rperf::cali::ConfigManager cm(config);
    for (const auto& s : cm.specs()) {
      if (s.name != "runtime-report") {
        throw ConfigError("unknown spec '" + s.name +
                          "' (rajaperf implements runtime-report)");
      }
    }
    spec = cm.get("runtime-report");
  } catch (const ConfigError& e) {
    throw std::invalid_argument(std::string("--caliper: ") + e.what());
  }
  const std::string text = spec.option_or("min_percent", "0");
  rperf::cali::ReportOptions opts;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, opts.min_percent);
  if (ec != std::errc() || ptr != end || !std::isfinite(opts.min_percent) ||
      opts.min_percent < 0.0) {
    throw std::invalid_argument(
        "--caliper: min_percent wants a number >= 0 (got '" + text + "')");
  }
  opts.show_metrics = spec.option_or("metrics", "") == "true";
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rperf;
  try {
    // Peel off driver-level options; forward the rest to RunParams.
    std::vector<const char*> forwarded = {argv[0]};
    std::string report = "timing";
    std::string caliper_config;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--list") == 0) return list_kernels();
      if (std::strcmp(argv[i], "--simulate") == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--simulate needs a machine shorthand "
                               "(SPR-DDR, SPR-HBM, P9-V100, EPYC-MI250X)\n");
          return 2;
        }
        return simulate(argv[i + 1]);
      }
      if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
        report = argv[++i];
        continue;
      }
      if (std::strcmp(argv[i], "--caliper") == 0 && i + 1 < argc) {
        caliper_config = argv[++i];
        continue;
      }
      if (std::strcmp(argv[i], "--help") == 0) {
        std::printf("rajaperf — run the kernel suite\n%s"
                    "  --report R        timing | checksum | both\n"
                    "  --caliper CFG     Caliper-style config, e.g.\n"
                    "                    'runtime-report,min_percent=1'\n"
                    "  --list            list kernels and exit\n"
                    "  --simulate M      predicted suite run on machine M\n"
                    "exit codes: 0 ok, 1 checksum mismatch, 2 bad args,\n"
                    "  4 non-passed cells, 5 runtime error,\n"
                    "  130/143 interrupted (checkpoint flushed)\n",
                    suite::RunParams::usage().c_str());
        return 0;
      }
      forwarded.push_back(argv[i]);
    }
    if (report != "timing" && report != "checksum" && report != "both") {
      throw std::invalid_argument(
          "--report wants timing, checksum or both (got '" + report + "')");
    }
    std::optional<cali::ReportOptions> report_options;
    if (!caliper_config.empty()) {
      report_options = caliper_report_options(caliper_config);
    }

    suite::RunParams params = suite::RunParams::parse(
        static_cast<int>(forwarded.size()), forwarded.data());

    // Ctrl-C / SIGTERM: latch the signal (the executor skips remaining
    // cells and any live sandbox worker is terminated), then fall through
    // the normal reporting + checkpoint/profile flush and exit 128+sig.
    sandbox::install_interrupt_handlers();

    suite::Executor exec(params);
    exec.run();

    if (report == "timing" || report == "both") {
      std::printf("Timing (seconds per repetition):\n%s\n",
                  exec.timing_report().c_str());
    }
    if (report == "checksum" || report == "both") {
      std::printf("Checksums:\n%s\n", exec.checksum_report().c_str());
    }

    // Failure taxonomy: the sweep completes under --keep-going, but any
    // non-passed cell is reported and turns into a nonzero exit below.
    const bool all_passed = exec.all_passed();
    std::printf("%s", exec.status_report().c_str());

    // Memory-subsystem summary: how well setup amortized across the sweep.
    {
      const auto ps = mem::pool().stats();
      std::printf("pool: %.1f MiB reserved (high water %.1f MiB), "
                  "%llu allocs, %.0f%% reused\n",
                  static_cast<double>(ps.bytes_reserved()) / (1024.0 * 1024.0),
                  static_cast<double>(ps.high_water_bytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(ps.alloc_calls),
                  ps.reuse_rate() * 100.0);
    }

    // Worker-pool supervision summary (--workers): the deadline that keeps
    // the sweep alive, what it cost in respawned and recycled workers, how
    // much of the core budget admitted cells held, and what the workers
    // consumed.
    if (params.workers > 0) {
      const auto& ws = exec.pool_stats();
      char deadline[48] = "no deadline";
      if (params.max_cell_seconds > 0.0) {
        std::snprintf(deadline, sizeof(deadline), "deadline %g s",
                      params.max_cell_seconds);
      }
      std::printf("workers: %d pooled, %s, %zu spawned, %zu recycled "
                  "(%zu deadline kills, %zu corrupt frames), %zu/%zu jobs "
                  "completed, peak queue %zu, peak cores %d of %d, core "
                  "occupancy %.2f; worker rusage: peak rss %ld KiB, user "
                  "%.3f s, sys %.3f s\n",
                  params.workers, deadline, ws.spawns, ws.recycles,
                  ws.deadline_kills, ws.corrupt_frames, ws.jobs_completed,
                  ws.jobs_dispatched, ws.peak_queue_depth,
                  ws.peak_cores_inflight, ws.core_budget, ws.core_occupancy,
                  ws.peak_rss_kb, ws.child_user_sec, ws.child_sys_sec);
      if (exec.degraded()) {
        std::printf("WARNING: pool unavailable (%zu spawn failures); "
                    "sweep degraded to in-process execution\n",
                    ws.spawn_failures);
      }
    }

    std::string details;
    if (!exec.checksums_consistent(&details)) {
      std::fprintf(stderr, "CHECKSUM MISMATCH:\n%s", details.c_str());
      return 1;
    }
    std::printf("checksums consistent across passed results\n");
    exec.write_profiles();
    if (!params.output_dir.empty()) {
      std::printf("profiles written to %s/ (progress in %s)\n",
                  params.output_dir.c_str(), exec.progress_path().c_str());
    }

    // Profile-store landing summary (--store): where the run went and
    // under which content address, or why durability was lost.
    if (!params.store_dir.empty()) {
      if (!exec.store_run_id().empty() && exec.store_error().empty()) {
        std::printf("store: run %s landed in %s (%zu cells committed)\n",
                    exec.store_run_id().c_str(), params.store_dir.c_str(),
                    exec.store_cells());
      } else {
        std::printf("WARNING: store disabled: %s\n",
                    exec.store_error().c_str());
      }
    }

    // Hardware-counter summary (--hwc): where the values came from and
    // what reading them cost. The line shape "hwc overhead X.XX% of wall
    // time" is load-bearing: the perf_hwc_overhead smoke test parses it
    // and fails the build past 5%.
    if (params.hwc) {
      std::printf("hwc: source=%s, overhead %.2f%% of wall time%s%s\n",
                  exec.hwc_source().empty() ? "none" : exec.hwc_source().c_str(),
                  exec.hwc_overhead_pct(),
                  exec.hwc_reason().empty() ? "" : " — ",
                  exec.hwc_reason().c_str());
    }

    if (params.trace) {
      std::string trace_path = params.trace_path;
      if (trace_path.empty()) {
        trace_path = params.output_dir.empty()
                         ? "trace.json"
                         : params.output_dir + "/trace.json";
      }
      exec.write_trace(trace_path);
      std::printf("trace written to %s (%zu worker chunk%s, overhead "
                  "%.2f%% of wall time); open at ui.perfetto.dev\n",
                  trace_path.c_str(), exec.worker_trace_count(),
                  exec.worker_trace_count() == 1 ? "" : "s",
                  exec.trace_overhead_pct());
    }

    // Crash forensics hint: any Crashed/OutOfMemory/Killed cell has a
    // detailed record (signal, backtrace-bearing stderr tail, rusage)
    // in the crashes.jsonl sidecar.
    {
      const auto counts = exec.status_counts();
      const std::size_t contained = counts.at(suite::RunStatus::Crashed) +
                                    counts.at(suite::RunStatus::OutOfMemory) +
                                    counts.at(suite::RunStatus::Killed);
      if (contained > 0 && !exec.crashes_path().empty()) {
        std::printf("crash forensics for %zu cell%s in %s\n", contained,
                    contained == 1 ? "" : "s", exec.crashes_path().c_str());
      }
    }

    if (const int isig = sandbox::interrupt_signal(); isig != 0) {
      std::fprintf(stderr,
                   "interrupted by %s; checkpoint and profiles flushed "
                   "(resume with --resume)\n",
                   sandbox::signal_name(isig).c_str());
      return 128 + isig;
    }

    // Caliper-style config: a runtime-report spec prints the hierarchical
    // region report per executed profile.
    if (report_options) {
      for (const auto& prof : exec.profiles()) {
        std::printf("\n--- runtime-report: variant=%s tuning=%s ---\n%s",
                    prof.metadata.at("variant").c_str(),
                    prof.metadata.at("tuning").c_str(),
                    cali::runtime_report(prof, *report_options).c_str());
      }
    }
    return all_passed ? 0 : 4;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n(see rajaperf --help)\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
    return 70;
  }
}
