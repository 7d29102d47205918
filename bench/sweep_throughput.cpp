// sweep_throughput — end-to-end sweep throughput, before vs. after the
// rperf::mem subsystem (BENCH_sweep.json).
//
// Runs the same (kernel, variant, tuning) sweep three times in one process:
//
//   legacy    — serial LCG fills, serial element-at-a-time checksum, pool
//               and dataset cache disabled: the pre-PR setup path.
//   optimized — pooled arena allocations, jump-ahead blocked fills, dataset
//               cache, blocked 4-lane checksum: the current path.
//   traced    — the optimized path with the TraceSink recording, cross-
//               checking the tracer's self-accounted overhead figure
//               against the measured wall-time delta.
//
// Plus two sandboxed legs quantifying the cost of crash containment
// (these run FIRST: they fork workers, and a fork after the in-process
// legs have warmed libgomp's thread pool would deadlock):
//
//   forkcell  — --isolate cell: a one-worker disposable pool that recycles
//               its worker before every cell, so each cell pays a fork.
//   pooled    — --workers 4: the supervised persistent worker pool, which
//               amortizes the fork and warm-up over the whole sweep, with
//               kernel-affinity dispatch keeping repeat cells on the worker
//               whose dataset cache is already warm. The pooled-vs-fork
//               speedup is the persistent pool's reason to exist.
//
// Only setup machinery differs; the measured kernel loops are identical.
// The benchmark reports wall time and cells/second for both modes, checks
// that every cell's checksum agrees across modes (the fills are bit-
// identical, so only checksum summation-order rounding may differ), and
// verifies a sample of optimized fills byte-for-byte against the serial
// LCG reference.
//
// Arrays stay at their default (size-factor 1.0) extents so fills, pool
// traffic, and checksums are full-sized, but the measured rep loops run on
// a small budget (--reps-factor, default 0.1): this is a benchmark of the
// *harness* — how many sweep cells per second the suite can set up,
// validate, and tear down — not of the kernels, whose timing the mem
// subsystem deliberately leaves untouched.
//
// For the same reason, compute-bound outlier kernels whose irreducible
// per-rep work swamps every harness cost (currently Basic_MAT_MAT_SHARED:
// O(n^3) flops that measure identically in both modes and only dilute the
// comparison) are excluded by default; the exclusion is recorded in the
// JSON and can be disabled with --exclude none.
//
//   sweep_throughput [--groups Stream,Basic,Lcals] [--size-factor F]
//                    [--reps-factor F] [--npasses N] [--exclude A,B|none]
//                    [--json PATH]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <set>
#include <sstream>

#include "instrument/json.hpp"
#include "store/store.hpp"
#include "mem/cache.hpp"
#include "mem/fill.hpp"
#include "mem/pool.hpp"
#include "suite/data_utils.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"

namespace {

struct ModeResult {
  double wall_sec = 0.0;
  std::size_t cells = 0;
  std::size_t passed = 0;
  double setup_ms = 0.0;
  double checksum_ms = 0.0;
  double trace_overhead_pct = 0.0;  ///< sink's self-accounting (traced leg)
  std::map<std::string, long double> checksums;
};

ModeResult run_mode(bool legacy, bool traced,
                    const rperf::suite::RunParams& params) {
  using namespace rperf;

  suite::set_legacy_setup(legacy);
  mem::pool().set_enabled(!legacy);
  mem::data_cache().set_enabled(!legacy);
  mem::pool().release();
  mem::data_cache().clear();

  suite::RunParams p = params;
  p.trace = traced;

  suite::Executor exec(p);
  const auto t0 = std::chrono::steady_clock::now();
  exec.run();
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult out;
  out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  out.trace_overhead_pct = exec.trace_overhead_pct();
  for (const auto& r : exec.results()) {
    ++out.cells;
    if (r.status != suite::RunStatus::Passed) continue;
    ++out.passed;
    out.setup_ms += r.setup_ms;
    out.checksum_ms += r.checksum_ms;
    out.checksums[r.kernel + "/" + suite::to_string(r.variant) + "/" +
                  r.tuning_name] = r.checksum;
  }
  return out;
}

/// Optimized fills must reproduce the serial LCG stream byte for byte.
bool fills_bit_identical() {
  using namespace rperf;
  for (std::int64_t n : {1, 5, 4095, 4096, 4097, 100000}) {
    std::vector<double> fast(static_cast<std::size_t>(n));
    mem::fill_random(fast.data(), n, 31u);
    std::uint32_t state = 31u;
    for (std::int64_t i = 0; i < n; ++i) {
      state = state * 1664525u + 1013904223u;
      const double ref =
          (static_cast<double>(state >> 8) + 0.5) / 16777216.0;
      if (std::memcmp(&fast[static_cast<std::size_t>(i)], &ref,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rperf;

  std::string groups = "Stream,Basic,Lcals";
  std::string json_path = "BENCH_sweep.json";
  std::string size_factor = "1.0";
  std::string reps_factor = "0.1";
  std::string npasses = "1";
  std::string exclude = "Basic_MAT_MAT_SHARED";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--groups") == 0 && i + 1 < argc) {
      groups = argv[++i];
    } else if (std::strcmp(argv[i], "--size-factor") == 0 && i + 1 < argc) {
      size_factor = argv[++i];
    } else if (std::strcmp(argv[i], "--reps-factor") == 0 && i + 1 < argc) {
      reps_factor = argv[++i];
    } else if (std::strcmp(argv[i], "--npasses") == 0 && i + 1 < argc) {
      npasses = argv[++i];
    } else if (std::strcmp(argv[i], "--exclude") == 0 && i + 1 < argc) {
      exclude = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: sweep_throughput [--groups A,B] [--size-factor F] "
                   "[--reps-factor F] [--npasses N] [--exclude A,B|none] "
                   "[--json PATH]\n");
      return 2;
    }
  }

  const std::vector<const char*> args = {
      "sweep_throughput", "--groups",  groups.c_str(),
      "--size-factor",    size_factor.c_str(),
      "--reps-factor",    reps_factor.c_str(),
      "--npasses",        npasses.c_str()};
  suite::RunParams params =
      suite::RunParams::parse(static_cast<int>(args.size()), args.data());

  // Resolve the group filter to explicit kernel names minus the excluded
  // compute-bound outliers.
  std::set<std::string> excluded;
  if (exclude != "none") {
    std::stringstream ss(exclude);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) excluded.insert(tok);
    }
  }
  if (!excluded.empty()) {
    std::vector<std::string> keep;
    for (const auto& k : suite::make_kernels(params)) {
      if (excluded.count(k->name()) == 0) keep.push_back(k->name());
    }
    params.kernel_filter = std::move(keep);
  }

  std::printf(
      "sweep_throughput: groups=%s size-factor=%s reps-factor=%s npasses=%s "
      "exclude=%s\n",
      groups.c_str(), size_factor.c_str(), reps_factor.c_str(),
      npasses.c_str(), exclude.c_str());

  // Sandbox legs first — see the header comment: forking is only safe
  // while this process has never entered an OpenMP parallel region.
  suite::RunParams sand = params;
  sand.isolate = suite::IsolationMode::Cell;
  const ModeResult forkcell = run_mode(/*legacy=*/false, /*traced=*/false,
                                       sand);
  std::printf("  forkcell:  %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; a disposable worker per cell)\n",
              forkcell.wall_sec, forkcell.passed, forkcell.cells,
              static_cast<double>(forkcell.passed) / forkcell.wall_sec);

  sand.workers = 4;
  const ModeResult pooled = run_mode(/*legacy=*/false, /*traced=*/false,
                                     sand);
  const double pooled_speedup = forkcell.wall_sec / pooled.wall_sec;
  std::printf("  pooled:    %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; 4 pooled workers, %.2fx vs fork-per-cell)\n",
              pooled.wall_sec, pooled.passed, pooled.cells,
              static_cast<double>(pooled.passed) / pooled.wall_sec,
              pooled_speedup);

  // Legacy first so the optimized run cannot inherit warmed pool chunks the
  // legacy run would not have; each mode starts from an empty pool/cache.
  const ModeResult legacy = run_mode(/*legacy=*/true, /*traced=*/false,
                                     params);
  std::printf("  legacy:    %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; setup %.0f ms, checksum %.0f ms)\n",
              legacy.wall_sec, legacy.passed, legacy.cells,
              static_cast<double>(legacy.passed) / legacy.wall_sec,
              legacy.setup_ms, legacy.checksum_ms);

  const ModeResult opt = run_mode(/*legacy=*/false, /*traced=*/false, params);
  std::printf("  optimized: %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; setup %.0f ms, checksum %.0f ms)\n",
              opt.wall_sec, opt.passed, opt.cells,
              static_cast<double>(opt.passed) / opt.wall_sec, opt.setup_ms,
              opt.checksum_ms);

  // store_append leg: the optimized path again with every cell landing
  // in the crash-consistent profile store (--store). The store's write
  // path is a handful of framed appends plus group-commit fsyncs per
  // sweep, so its cost is gated at < 5% of suite wall time below.
  suite::RunParams stp = params;
  stp.store_dir = json_path + ".store";
  std::filesystem::remove_all(stp.store_dir);
  const ModeResult stored = run_mode(/*legacy=*/false, /*traced=*/false, stp);
  const double store_overhead_pct =
      (stored.wall_sec / opt.wall_sec - 1.0) * 100.0;
  // Every terminal cell must have durably landed as a committed record
  // of one complete, content-addressed run.
  std::size_t store_landed = 0;
  bool store_run_complete = false;
  {
    store::StoreReader reader(stp.store_dir);
    if (const store::StoredRun* run = reader.find("")) {
      store_landed = run->cells.size();
      store_run_complete = run->complete;
    }
  }
  std::filesystem::remove_all(stp.store_dir);
  std::printf("  store:     %.3f s wall (%+.1f%% vs optimized; %zu/%zu "
              "cells landed, run %s)\n",
              stored.wall_sec, store_overhead_pct, store_landed, stored.cells,
              store_run_complete ? "complete" : "INCOMPLETE");

  // Third leg: the optimized path again with the TraceSink recording,
  // cross-checking the sink's self-accounted trace_overhead_pct against
  // the wall-time delta it actually causes. The measured delta is noisy
  // at smoke sizes (it can even come out negative), so it is recorded,
  // not gated on.
  const ModeResult traced = run_mode(/*legacy=*/false, /*traced=*/true,
                                     params);
  const double traced_delta_pct =
      (traced.wall_sec / opt.wall_sec - 1.0) * 100.0;
  std::printf("  traced:    %.3f s wall (%+.1f%% vs optimized; "
              "self-accounted overhead %.2f%%)\n",
              traced.wall_sec, traced_delta_pct, traced.trace_overhead_pct);

  // Restore defaults for anything running after us in this process.
  suite::set_legacy_setup(false);

  // Cross-mode checksum agreement. Inputs are bit-identical; the checksum
  // fold order changed, so allow only summation-rounding slack.
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  for (const auto& [key, legacy_sum] : legacy.checksums) {
    const auto it = opt.checksums.find(key);
    if (it == opt.checksums.end()) continue;
    ++compared;
    if (!suite::checksums_match(legacy_sum, it->second, 1e-10)) {
      ++mismatched;
      std::fprintf(stderr, "  checksum mismatch %s: legacy=%.17Lg opt=%.17Lg\n",
                   key.c_str(), legacy_sum, it->second);
    }
  }
  // Sandboxed results must be bit-identical to in-process ones: same code,
  // same deterministic fills, only the executing process differs. Exact
  // == (not memcmp: x86 long double carries uninitialized padding bytes).
  std::size_t sandbox_mismatched = 0;
  for (const auto* leg : {&forkcell, &pooled}) {
    for (const auto& [key, sum] : leg->checksums) {
      const auto it = opt.checksums.find(key);
      if (it == opt.checksums.end()) continue;
      if (sum != it->second) {
        ++sandbox_mismatched;
        std::fprintf(stderr,
                     "  sandbox checksum mismatch %s: %.17Lg vs %.17Lg\n",
                     key.c_str(), sum, it->second);
      }
    }
  }
  const bool bit_identical = fills_bit_identical();

  const double reduction_pct =
      (1.0 - opt.wall_sec / legacy.wall_sec) * 100.0;
  std::printf("  wall-time reduction: %.1f%% (%zu checksums compared, "
              "%zu mismatched; fills bit-identical: %s)\n",
              reduction_pct, compared, mismatched,
              bit_identical ? "yes" : "NO");

  json::Object o;
  o["groups"] = groups;
  o["size_factor"] = std::stod(size_factor);
  o["reps_factor"] = std::stod(reps_factor);
  o["npasses"] = std::stod(npasses);
  o["excluded_kernels"] = exclude;
  json::Object lg;
  lg["wall_sec"] = legacy.wall_sec;
  lg["cells"] = static_cast<std::int64_t>(legacy.cells);
  lg["cells_passed"] = static_cast<std::int64_t>(legacy.passed);
  lg["cells_per_sec"] = static_cast<double>(legacy.passed) / legacy.wall_sec;
  lg["setup_ms"] = legacy.setup_ms;
  lg["checksum_ms"] = legacy.checksum_ms;
  o["legacy"] = std::move(lg);
  json::Object op;
  op["wall_sec"] = opt.wall_sec;
  op["cells"] = static_cast<std::int64_t>(opt.cells);
  op["cells_passed"] = static_cast<std::int64_t>(opt.passed);
  op["cells_per_sec"] = static_cast<double>(opt.passed) / opt.wall_sec;
  op["setup_ms"] = opt.setup_ms;
  op["checksum_ms"] = opt.checksum_ms;
  o["optimized"] = std::move(op);
  json::Object tr;
  tr["wall_sec"] = traced.wall_sec;
  tr["cells_passed"] = static_cast<std::int64_t>(traced.passed);
  tr["trace_overhead_pct"] = traced.trace_overhead_pct;
  tr["measured_delta_pct"] = traced_delta_pct;
  o["traced"] = std::move(tr);
  json::Object st;
  st["wall_sec"] = stored.wall_sec;
  st["cells_passed"] = static_cast<std::int64_t>(stored.passed);
  st["cells_landed"] = static_cast<std::int64_t>(store_landed);
  st["run_complete"] = store_run_complete;
  st["overhead_pct"] = store_overhead_pct;
  o["store_append"] = std::move(st);
  json::Object fc;
  fc["wall_sec"] = forkcell.wall_sec;
  fc["cells_passed"] = static_cast<std::int64_t>(forkcell.passed);
  fc["cells_per_sec"] =
      static_cast<double>(forkcell.passed) / forkcell.wall_sec;
  o["sandbox_forkcell"] = std::move(fc);
  json::Object pl;
  pl["wall_sec"] = pooled.wall_sec;
  pl["cells_passed"] = static_cast<std::int64_t>(pooled.passed);
  pl["cells_per_sec"] = static_cast<double>(pooled.passed) / pooled.wall_sec;
  pl["workers"] = static_cast<std::int64_t>(4);
  o["sandbox_pooled"] = std::move(pl);
  o["pooled_vs_fork_speedup"] = pooled_speedup;
  o["sandbox_checksums_mismatched"] =
      static_cast<std::int64_t>(sandbox_mismatched);
  o["wall_time_reduction_pct"] = reduction_pct;
  o["checksums_compared"] = static_cast<std::int64_t>(compared);
  o["checksums_mismatched"] = static_cast<std::int64_t>(mismatched);
  o["fills_bit_identical"] = bit_identical;

  std::ofstream os(json_path);
  os << json::Value(std::move(o)).dump(2) << '\n';
  std::printf("  wrote %s\n", json_path.c_str());

  if (mismatched > 0 || sandbox_mismatched > 0 || !bit_identical) return 1;
  if (legacy.passed != opt.passed || legacy.passed == 0) return 1;
  if (traced.passed != opt.passed) return 1;
  // The store leg gates both function (every cell committed to one
  // complete run) and cost (< 5% of the suite's wall time).
  if (stored.passed != opt.passed || store_landed != stored.cells ||
      !store_run_complete) {
    std::fprintf(stderr, "  store leg lost cells: %zu/%zu landed\n",
                 store_landed, stored.cells);
    return 1;
  }
  // At smoke sizes the whole sweep is milliseconds and the store's
  // dozen group-commit fsyncs dominate any percentage, so the 5% gate
  // applies once the absolute delta is measurable (>= 50 ms); at real
  // bench sizes 5% of the wall time is far above that floor.
  if (store_overhead_pct >= 5.0 &&
      stored.wall_sec - opt.wall_sec >= 0.05) {
    std::fprintf(stderr, "  store overhead %.1f%% exceeds the 5%% budget\n",
                 store_overhead_pct);
    return 1;
  }
  if (forkcell.passed != opt.passed || pooled.passed != opt.passed) return 1;
  return 0;
}
