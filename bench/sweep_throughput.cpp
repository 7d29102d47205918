// sweep_throughput — end-to-end sweep throughput of the suite harness on
// each execution path (BENCH_sweep.json).
//
// Runs the same (kernel, variant, tuning) sweep once per leg in one
// process, each leg starting from an empty memory pool:
//
//   optimized    — in-process: pooled arena allocations, jump-ahead
//                  blocked fills, blocked 4-lane checksum.
//   store_append — the optimized leg with every cell landing in the
//                  crash-consistent profile store (--store), checked by
//                  the durability barriers (fsyncs) the store issues.
//   traced       — the optimized leg with the TraceSink recording, cross-
//                  checking the tracer's self-accounted overhead figure
//                  against the measured wall-time delta.
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
//               whose allocator arenas are already warm. The pooled-vs-fork
//               speedup is the persistent pool's reason to exist.
//
// Only the executing process differs between legs; the measured kernel
// loops are identical. The benchmark reports wall time and cells/second
// per leg, checks every sandboxed cell's checksum against the in-process
// one under the cell's ChecksumOrder (suite::checksums_agree: bit for bit
// for exact and per_team cells, which run one team size on both sides;
// within the reorder bound for unordered ones), and verifies a sample of
// optimized fills byte-for-byte against an inline serial LCG reference.
//
// Arrays stay at their default (size-factor 1.0) extents so fills, pool
// traffic, and checksums are full-sized, but the measured rep loops run on
// a small budget (--reps-factor, default 0.1): this is a benchmark of the
// *harness* — how many sweep cells per second the suite can set up,
// validate, and tear down — not of the kernels.
//
// For the same reason, compute-bound outlier kernels whose irreducible
// per-rep work swamps every harness cost (currently Basic_MAT_MAT_SHARED:
// O(n^3) flops that measure identically on every leg and only dilute the
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
#include "mem/fill.hpp"
#include "mem/pool.hpp"
#include "suite/data_utils.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"

namespace {

struct CellChecksum {
  long double checksum = 0.0L;
  rperf::suite::ChecksumOrder order = rperf::suite::ChecksumOrder::Exact;
  rperf::suite::Index_type n = 0;  ///< problem size
};

struct ModeResult {
  double wall_sec = 0.0;
  std::size_t cells = 0;
  std::size_t passed = 0;
  double setup_ms = 0.0;
  double checksum_ms = 0.0;
  double trace_overhead_pct = 0.0;  ///< sink's self-accounting (traced leg)
  std::size_t store_barriers = 0;   ///< fsyncs the store issued (--store)
  std::map<std::string, CellChecksum> checksums;
};

/// A sandbox leg's checksums against the in-process leg's.
struct Parity {
  std::size_t bit_exact = 0;     ///< exact and per_team cells
  std::size_t within_bound = 0;  ///< unordered cells
  std::size_t mismatched = 0;
  std::string worst_cell;        ///< unordered cell closest to its bound
  long double worst_rel_diff = 0.0L;
  long double worst_bound = 0.0L;
};

ModeResult run_mode(bool traced, const rperf::suite::RunParams& params) {
  using namespace rperf;

  mem::pool().release();

  suite::RunParams p = params;
  p.trace = traced;

  suite::Executor exec(p);
  const auto t0 = std::chrono::steady_clock::now();
  exec.run();
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult out;
  out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  out.trace_overhead_pct = exec.trace_overhead_pct();
  out.store_barriers = exec.store_barriers();
  std::map<std::string, const suite::KernelBase*> kernels;
  for (const auto& k : exec.kernels()) kernels[k->name()] = k.get();
  for (const auto& r : exec.results()) {
    ++out.cells;
    if (r.status != suite::RunStatus::Passed) continue;
    ++out.passed;
    out.setup_ms += r.setup_ms;
    out.checksum_ms += r.checksum_ms;
    out.checksums[r.kernel + "/" + suite::to_string(r.variant) + "/" +
                  r.tuning_name] = {
        r.checksum, kernels.at(r.kernel)->checksum_order(r.variant),
        r.problem_size};
  }
  return out;
}

Parity compare_checksums(const char* leg, const ModeResult& sandboxed,
                         const ModeResult& in_process) {
  using namespace rperf;
  Parity p;
  for (const auto& [key, cell] : sandboxed.checksums) {
    const auto it = in_process.checksums.find(key);
    if (it == in_process.checksums.end()) continue;
    const long double ref = it->second.checksum;
    if (cell.order == suite::ChecksumOrder::Unordered) {
      ++p.within_bound;
      const long double rel = suite::relative_difference(cell.checksum, ref);
      const long double bound = suite::reorder_bound(cell.n);
      if (p.worst_cell.empty() ||
          rel / bound > p.worst_rel_diff / p.worst_bound) {
        p.worst_cell = key;
        p.worst_rel_diff = rel;
        p.worst_bound = bound;
      }
    } else {
      ++p.bit_exact;
    }
    if (!suite::checksums_agree(cell.checksum, ref, cell.order, cell.n,
                                /*same_team=*/true)) {
      ++p.mismatched;
      std::fprintf(stderr,
                   "  %s checksum mismatch %s (%s): %.17Lg vs %.17Lg\n", leg,
                   key.c_str(), suite::to_string(cell.order).c_str(),
                   cell.checksum, ref);
    }
  }
  std::printf("  %s checksums: %zu bit for bit, %zu within the reorder "
              "bound, %zu mismatched\n",
              leg, p.bit_exact, p.within_bound, p.mismatched);
  if (!p.worst_cell.empty()) {
    std::printf("    largest unordered difference: %s, relative %.3Lg "
                "(bound %.3Lg)\n",
                p.worst_cell.c_str(), p.worst_rel_diff, p.worst_bound);
  }
  return p;
}

rperf::json::Object parity_json(const Parity& p) {
  rperf::json::Object o;
  o["bit_exact"] = static_cast<std::int64_t>(p.bit_exact);
  o["within_bound"] = static_cast<std::int64_t>(p.within_bound);
  o["mismatched"] = static_cast<std::int64_t>(p.mismatched);
  o["worst_cell"] = p.worst_cell;
  o["worst_rel_diff"] = static_cast<double>(p.worst_rel_diff);
  o["worst_bound"] = static_cast<double>(p.worst_bound);
  return o;
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
  const ModeResult forkcell = run_mode(/*traced=*/false, sand);
  std::printf("  forkcell:  %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; a disposable worker per cell)\n",
              forkcell.wall_sec, forkcell.passed, forkcell.cells,
              static_cast<double>(forkcell.passed) / forkcell.wall_sec);

  sand.workers = 4;
  const ModeResult pooled = run_mode(/*traced=*/false, sand);
  const double pooled_speedup = forkcell.wall_sec / pooled.wall_sec;
  std::printf("  pooled:    %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; 4 pooled workers, %.2fx vs fork-per-cell)\n",
              pooled.wall_sec, pooled.passed, pooled.cells,
              static_cast<double>(pooled.passed) / pooled.wall_sec,
              pooled_speedup);

  const ModeResult opt = run_mode(/*traced=*/false, params);
  std::printf("  optimized: %.3f s wall, %zu/%zu cells passed "
              "(%.1f cells/s; setup %.0f ms, checksum %.0f ms)\n",
              opt.wall_sec, opt.passed, opt.cells,
              static_cast<double>(opt.passed) / opt.wall_sec, opt.setup_ms,
              opt.checksum_ms);

  // store_append leg: the optimized path again with every cell landing
  // in the crash-consistent profile store (--store). The store's write
  // path is a handful of framed appends plus group-commit fsyncs per
  // sweep. The program fixes how many fsyncs it issues and the host how
  // long each takes, so the count is gated below; the wall-time delta is
  // recorded, not gated.
  suite::RunParams stp = params;
  stp.store_dir = json_path + ".store";
  std::filesystem::remove_all(stp.store_dir);
  const ModeResult stored = run_mode(/*traced=*/false, stp);
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
  // The barriers one run on a fresh store may issue (store.cpp). Group
  // commit fsyncs the journal once per 8 commit markers (WriterOptions'
  // sync_every_commits), with one marker for begin_run and one per cell.
  // The rest are fixed: opening fsyncs the new journal's header and the
  // directory (2); finish_run fsyncs the journal before and after the
  // final marker (2); the seal fsyncs the directory after renaming the
  // journal into a segment, then the manifest and the directory it is
  // renamed into, then the next journal's header (4).
  constexpr std::size_t kSyncEveryCommits = 8;
  constexpr std::size_t kFixedBarriers = 2 + 2 + 4;
  const std::size_t commits = 1 + stored.cells;
  const std::size_t barrier_bound =
      (commits + kSyncEveryCommits - 1) / kSyncEveryCommits + kFixedBarriers;
  std::printf("  store:     %.3f s wall (%+.1f%% vs optimized; %zu/%zu "
              "cells landed, run %s; %zu fsync barriers, bound %zu)\n",
              stored.wall_sec, store_overhead_pct, store_landed, stored.cells,
              store_run_complete ? "complete" : "INCOMPLETE",
              stored.store_barriers, barrier_bound);

  // Third leg: the optimized path again with the TraceSink recording,
  // cross-checking the sink's self-accounted trace_overhead_pct against
  // the wall-time delta it actually causes. The measured delta is noisy
  // at smoke sizes (it can even come out negative), so it is recorded,
  // not gated on.
  const ModeResult traced = run_mode(/*traced=*/true, params);
  const double traced_delta_pct =
      (traced.wall_sec / opt.wall_sec - 1.0) * 100.0;
  std::printf("  traced:    %.3f s wall (%+.1f%% vs optimized; "
              "self-accounted overhead %.2f%%)\n",
              traced.wall_sec, traced_delta_pct, traced.trace_overhead_pct);

  // Sandboxed results against in-process ones: same code, same
  // deterministic fills, only the executing process differs.
  const Parity forkcell_parity = compare_checksums("forkcell", forkcell, opt);
  const Parity pooled_parity = compare_checksums("pooled", pooled, opt);
  const std::size_t sandbox_mismatched =
      forkcell_parity.mismatched + pooled_parity.mismatched;
  const bool bit_identical = fills_bit_identical();
  std::printf("  %zu sandbox checksums mismatched; fills bit-identical: %s\n",
              sandbox_mismatched, bit_identical ? "yes" : "NO");

  json::Object o;
  o["groups"] = groups;
  o["size_factor"] = std::stod(size_factor);
  o["reps_factor"] = std::stod(reps_factor);
  o["npasses"] = std::stod(npasses);
  o["excluded_kernels"] = exclude;
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
  st["fsync_barriers"] = static_cast<std::int64_t>(stored.store_barriers);
  st["fsync_barrier_bound"] = static_cast<std::int64_t>(barrier_bound);
  o["store_append"] = std::move(st);
  json::Object fc;
  fc["wall_sec"] = forkcell.wall_sec;
  fc["cells_passed"] = static_cast<std::int64_t>(forkcell.passed);
  fc["cells_per_sec"] =
      static_cast<double>(forkcell.passed) / forkcell.wall_sec;
  fc["checksums"] = parity_json(forkcell_parity);
  o["sandbox_forkcell"] = std::move(fc);
  json::Object pl;
  pl["wall_sec"] = pooled.wall_sec;
  pl["cells_passed"] = static_cast<std::int64_t>(pooled.passed);
  pl["cells_per_sec"] = static_cast<double>(pooled.passed) / pooled.wall_sec;
  pl["workers"] = static_cast<std::int64_t>(4);
  pl["checksums"] = parity_json(pooled_parity);
  o["sandbox_pooled"] = std::move(pl);
  o["pooled_vs_fork_speedup"] = pooled_speedup;
  o["sandbox_checksums_mismatched"] =
      static_cast<std::int64_t>(sandbox_mismatched);
  o["fills_bit_identical"] = bit_identical;

  std::ofstream os(json_path);
  os << json::Value(std::move(o)).dump(2) << '\n';
  std::printf("  wrote %s\n", json_path.c_str());

  if (sandbox_mismatched > 0 || !bit_identical) return 1;
  if (opt.passed == 0) return 1;
  if (traced.passed != opt.passed) return 1;
  // The store leg gates both function (every cell committed to one
  // complete run) and cost (no more fsync barriers than group commit and
  // the fixed open, finish and seal barriers account for).
  if (stored.passed != opt.passed || store_landed != stored.cells ||
      !store_run_complete) {
    std::fprintf(stderr, "  store leg lost cells: %zu/%zu landed\n",
                 store_landed, stored.cells);
    return 1;
  }
  if (stored.store_barriers > barrier_bound) {
    std::fprintf(stderr,
                 "  store issued %zu fsync barriers, more than the %zu that "
                 "group commit accounts for\n",
                 stored.store_barriers, barrier_bound);
    return 1;
  }
  if (forkcell.passed != opt.passed || pooled.passed != opt.passed) return 1;
  return 0;
}
