// store_ledger: writes beside reads on the profile store's ledger, index,
// mapped-segment and query modules. The suite, mem and sandbox are not
// involved.
//
// A seeded generator plans runs that look like real sweeps: each holds 34
// registry kernels (drawn per run, so a kernel appears in about half the
// runs and the bloom filters have something to prune) x the 6 variants =
// 204 cells, with one region profile per variant. Run r is generated from
// (seed, r) just before it is appended, and only its id and kernel set are
// kept to check answers against.
//
// One client, closed loop:
//
//   base    append 500 runs through one StoreWriter: the ledger the loop
//           works on (its time is logged, not reported)
//   loop    100 iterations spread evenly over the time budget. Each
//           appends one run (commit() after every cell, finish_run() at
//           the end), then issues point lookups until its time slice ends:
//           a fresh StoreQuery + run(prefix), as one
//           `rperf-report --store DIR --run PREFIX` does, with 90% of the
//           prefixes naming a run. Every 10th iteration first reopens the
//           writer, which scans every sealed segment (the set-up metric);
//           every 4th also runs one runs_with_kernel query, 10% of them for
//           a kernel no run has.
//   scans   cold StoreReader at 1, 4 and the default thread count
//
// Every metric's samples are spread over the whole loop, so a burst of
// host I/O contention moves a few of them rather than all.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "stats.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "suite/registry.hpp"
#include "workloads.hpp"

namespace rperf::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kKernelsPerRun = 34;
constexpr std::size_t kPrefixLen = 8;
constexpr int kScanRepeats = 3;

struct Sizes {
  std::size_t base_runs;
  std::size_t loop_runs;
  std::size_t reopen_every;
  std::size_t kernel_query_every;
  std::size_t traced_runs;  ///< appended again, in spans, by the traced pass
};

Sizes sizes(bool smoke) {
  return smoke ? Sizes{8, 10, 2, 2, 4} : Sizes{500, 100, 10, 4, 20};
}

/// splitmix64 finalizer: turns (seed, index) pairs into independent seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

struct PlannedRun {
  std::map<std::string, std::string> config;
  std::vector<std::string> kernels;  ///< registry order
  std::vector<store::CellRecord> cells;
  std::vector<std::pair<std::string, cali::Profile>> profiles;
};

PlannedRun plan_run(std::uint64_t seed, std::size_t r) {
  std::mt19937_64 rng(mix(mix(seed) + r));
  const std::vector<std::string>& names = suite::all_kernel_names();
  PlannedRun run;
  run.config = {{"bench", "rperf_bench"},
                {"workload", "store_ledger"},
                {"seed", std::to_string(seed)},
                {"run", std::to_string(r)}};
  std::vector<std::size_t> idx(names.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = 0; i < kKernelsPerRun; ++i) {
    std::swap(idx[i], idx[i + rng() % (idx.size() - i)]);
  }
  idx.resize(kKernelsPerRun);
  std::sort(idx.begin(), idx.end());
  for (std::size_t i : idx) run.kernels.push_back(names[i]);

  for (const auto& kernel : run.kernels) {
    for (suite::VariantID v : suite::all_variants()) {
      store::CellRecord c;
      c.kernel = kernel;
      c.variant = suite::to_string(v);
      c.tuning = "default";
      c.status = "Passed";
      c.time_per_rep_sec = 1e-6 * (1.0 + 999.0 * unit(rng));
      c.checksum = static_cast<long double>(unit(rng)) * 1e6L;
      c.problem_size = 1 << 20;
      c.reps = 50;
      run.cells.push_back(std::move(c));
    }
  }
  for (suite::VariantID v : suite::all_variants()) {
    cali::Profile p;
    p.metadata = {{"variant", suite::to_string(v)},
                  {"tuning", "default"},
                  {"run", std::to_string(r)}};
    for (const auto& kernel : run.kernels) {
      cali::ProfileNode node;
      node.name = kernel;
      node.time_sec = 1e-3 * (1.0 + 99.0 * unit(rng));
      node.visit_count = 1;
      node.metrics = {{"bytes_read", 8e6 * (1.0 + unit(rng))},
                      {"bytes_written", 4e6 * (1.0 + unit(rng))},
                      {"flops", 2e6 * (1.0 + unit(rng))},
                      {"reps", 50.0}};
      p.roots.push_back(std::move(node));
    }
    run.profiles.emplace_back(suite::to_string(v), std::move(p));
  }
  return run;
}

/// What the ledger holds, in ledger order: enough to check every answer.
struct Ledger {
  std::vector<std::string> ids;
  std::vector<std::vector<std::string>> kernels;
  std::size_t cells = 0;

  /// The run a prefix lookup must return: the latest whose id starts
  /// with `prefix`, or -1.
  [[nodiscard]] long latest_with_prefix(const std::string& prefix) const {
    for (std::size_t i = ids.size(); i-- > 0;) {
      if (ids[i].starts_with(prefix)) return static_cast<long>(i);
    }
    return -1;
  }
};

/// Append one planned run, committing after every cell; returns its wall
/// time, begin_run through finish_run.
double append_run(store::StoreWriter& w, const PlannedRun& run,
                  SpanRecorder* rec, Ledger& ledger, WorkloadResult& out) {
  const std::size_t committed = w.cells_committed();
  const auto t0 = Clock::now();
  std::string id;
  {
    ScopedSpan run_span(rec, "store.append_run");
    {
      ScopedSpan s(rec, "store.begin_run");
      id = w.begin_run(run.config);
    }
    for (const auto& c : run.cells) {
      {
        ScopedSpan s(rec, "store.add_cell");
        w.add_cell(c);
      }
      ScopedSpan s(rec, "store.commit");
      w.commit();
    }
    for (const auto& [variant, profile] : run.profiles) {
      ScopedSpan s(rec, "store.add_profile");
      w.add_profile(variant, "default", profile);
    }
    {
      ScopedSpan s(rec, "store.add_trace_summary");
      w.add_trace_summary({{"cells", static_cast<double>(run.cells.size())}});
    }
    ScopedSpan s(rec, "store.finish_run");
    w.finish_run();
  }
  const double elapsed = since(t0);
  out.attempted += run.cells.size();
  if (w.cells_committed() - committed != run.cells.size()) {
    out.fail("run " + id + ": writer committed " +
             std::to_string(w.cells_committed() - committed) + " of " +
             std::to_string(run.cells.size()) + " cells");
  }
  ledger.ids.push_back(id);
  ledger.kernels.push_back(run.kernels);
  ledger.cells += run.cells.size();
  return elapsed;
}

std::string random_hex(std::mt19937_64& rng, std::size_t n) {
  static const char kHex[] = "0123456789abcdef";
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += kHex[rng() % 16];
  return s;
}

struct QueryStats {
  std::vector<double> lookup_s;
  std::size_t indexed = 0;
  std::size_t segments = 0;
  std::size_t warnings = 0;
  std::vector<double> kernel_query_s;
  std::vector<double> pruned_frac;
};

/// One point lookup: fresh StoreQuery + run(prefix), checked against the
/// ledger.
void lookup(const std::string& dir, const Ledger& ledger,
            std::mt19937_64& rng, SpanRecorder* rec, QueryStats& st,
            WorkloadResult& out) {
  std::string prefix;
  long expected = -1;
  if (unit(rng) < 0.9) {
    prefix = ledger.ids[rng() % ledger.ids.size()].substr(0, kPrefixLen);
    expected = ledger.latest_with_prefix(prefix);
  } else {
    do {
      prefix = random_hex(rng, kPrefixLen);
    } while (ledger.latest_with_prefix(prefix) >= 0);
  }
  ++out.attempted;
  const auto t0 = Clock::now();
  std::optional<store::StoredRun> run;
  std::size_t warnings = 0;
  try {
    ScopedSpan span(rec, "store.lookup");
    std::optional<store::StoreQuery> q;
    {
      ScopedSpan s(rec, "store.query_open");
      q.emplace(dir);
    }
    {
      ScopedSpan s(rec, "store.run");
      run = q->run(prefix);
    }
    warnings = q->warnings().size();
    st.indexed += q->indexed_segments();
    st.segments += q->segment_count();
  } catch (const std::exception& e) {
    out.fail("lookup " + prefix + ": " + e.what());
    return;
  }
  st.lookup_s.push_back(since(t0));
  st.warnings += warnings;
  if (warnings > 0) {
    out.fail("lookup " + prefix + " degraded with index warnings");
  } else if (expected < 0) {
    if (run) out.fail("lookup " + prefix + " found a run none has");
  } else if (!run ||
             run->run_id != ledger.ids[static_cast<std::size_t>(expected)] ||
             !run->complete || run->cells.size() != kKernelsPerRun * 6 ||
             run->profiles.size() != 6) {
    out.fail("lookup " + prefix + " returned the wrong run");
  }
}

/// One fresh StoreQuery + runs_with_kernel, checked for missed runs.
void kernel_query(const std::string& dir, const Ledger& ledger,
                  std::mt19937_64& rng, QueryStats& st, WorkloadResult& out) {
  const std::vector<std::string>& names = suite::all_kernel_names();
  const std::string kernel = unit(rng) < 0.1 ? "Absent_" + random_hex(rng, 8)
                                             : names[rng() % names.size()];
  ++out.attempted;
  std::vector<store::StoredRun> found;
  try {
    const auto t0 = Clock::now();
    store::StoreQuery q(dir);
    found = q.runs_with_kernel(kernel);
    st.kernel_query_s.push_back(since(t0));
    st.pruned_frac.push_back(
        static_cast<double>(q.last_bloom_pruned()) /
        static_cast<double>(std::max<std::size_t>(1, q.segment_count())));
    st.warnings += q.warnings().size();
    if (!q.warnings().empty()) {
      out.fail("runs_with_kernel " + kernel + " degraded");
    }
  } catch (const std::exception& e) {
    out.fail("runs_with_kernel " + kernel + ": " + e.what());
    return;
  }
  std::set<std::string> got;
  for (const auto& r : found) got.insert(r.run_id);
  for (std::size_t i = 0; i < ledger.ids.size(); ++i) {
    const auto& ks = ledger.kernels[i];
    if (std::find(ks.begin(), ks.end(), kernel) != ks.end() &&
        got.count(ledger.ids[i]) == 0) {
      out.fail("runs_with_kernel " + kernel + " missed run " + ledger.ids[i]);
      return;
    }
  }
}

}  // namespace

void run_store_ledger(const Options& opt, SpanRecorder* rec,
                      WorkloadResult& out) {
  Metrics& m = out.metrics;
  const Sizes z = sizes(opt.smoke);
  const std::string dir = opt.workdir + "/ledger";
  fs::create_directories(dir);
  Ledger ledger;
  std::mt19937_64 rng(mix(opt.seed ^ 0x5851f42d4c957f2dull));
  QueryStats qs;
  std::vector<double> append_s;
  std::vector<double> reopen_s;
  std::size_t next_run = 0;
  {
    std::optional<store::StoreWriter> w(std::in_place, dir);

    // ----- base ledger -----
    const auto base_start = Clock::now();
    while (next_run < z.base_runs) {
      append_run(*w, plan_run(opt.seed, next_run++), nullptr, ledger, out);
    }
    std::fprintf(stderr, "  store_ledger: base ledger of %zu runs in %.3f s\n",
                 ledger.ids.size(), since(base_start));

    // ----- the mixed closed loop -----
    const double slice_s = opt.seconds * 0.8 / static_cast<double>(z.loop_runs);
    const auto loop_start = Clock::now();
    for (std::size_t i = 0; i < z.loop_runs; ++i) {
      if (i % z.reopen_every == 0) {
        w.reset();
        ++out.attempted;
        const auto t0 = Clock::now();
        w.emplace(dir);
        reopen_s.push_back(since(t0));
        if (w->recovery().quarantined_bytes != 0) {
          out.fail("reopening a cleanly finished ledger quarantined bytes");
        }
      }
      append_s.push_back(append_run(*w, plan_run(opt.seed, next_run++),
                                    nullptr, ledger, out));
      if (i % z.kernel_query_every == 0) kernel_query(dir, ledger, rng, qs, out);
      const auto slice_end =
          loop_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               slice_s * static_cast<double>(i + 1)));
      do {
        lookup(dir, ledger, rng, nullptr, qs, out);
      } while (Clock::now() < slice_end);
    }
  }

  m.set("cells_per_s",
        static_cast<double>(kKernelsPerRun * 6) / median(append_s));
  m.set("setup_s", median(reopen_s));
  std::vector<double> lookup_ms = qs.lookup_s;
  for (double& v : lookup_ms) v *= 1e3;
  const Tail tail = tail_percentile(lookup_ms);
  m.set("request_ms_p50", median(lookup_ms));
  m.set("store.lookup_ms_tail", tail.value);
  m.set("store.lookup_ms_tail_pct", tail.percentile);
  m.set("store.lookup_samples", static_cast<double>(tail.samples));
  m.set("store.indexed_segment_frac",
        qs.segments > 0 ? static_cast<double>(qs.indexed) /
                              static_cast<double>(qs.segments)
                        : 0.0);
  m.set("store.kernel_query_ms_p50", 1e3 * median(qs.kernel_query_s));
  double pruned = 0.0;
  for (double p : qs.pruned_frac) pruned += p;
  m.set("store.bloom_pruned_frac",
        qs.pruned_frac.empty()
            ? 0.0
            : pruned / static_cast<double>(qs.pruned_frac.size()));
  m.set("store.query_warnings", static_cast<double>(qs.warnings));
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  m.set("store.bytes_per_cell",
        static_cast<double>(bytes) / static_cast<double>(ledger.cells));

  // ----- cold scans -----
  std::vector<double> scan_1t;
  std::vector<double> scan_4t;
  std::vector<double> scan_def;
  auto scan = [&](unsigned threads, std::vector<double>& into) {
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      const store::StoreReader reader(dir, threads);
      into.push_back(since(t0));
      std::size_t complete = 0;
      for (const auto& r : reader.runs()) complete += r.complete ? 1 : 0;
      if (complete != ledger.ids.size()) {
        out.fail("cold scan at " + std::to_string(threads) + " threads saw " +
                 std::to_string(complete) + " complete runs of " +
                 std::to_string(ledger.ids.size()));
      }
    } catch (const std::exception& e) {
      out.fail(std::string("cold scan: ") + e.what());
    }
  };
  for (int i = 0; i < kScanRepeats; ++i) {
    scan(1, scan_1t);
    scan(4, scan_4t);
    scan(0, scan_def);
  }
  m.set("store.scan_1t_s", median(scan_1t));
  m.set("store.scan_4t_s", median(scan_4t));
  m.set("store.scan_s", median(scan_def));
  m.set("store.scan_speedup_4t",
        median(scan_4t) > 0.0 ? median(scan_1t) / median(scan_4t) : 0.0);

  if (rec) {
    // Traced pass: more runs appended with every store call in a span,
    // then traced lookups.
    std::size_t traced_cells = 0;
    {
      store::StoreWriter w(dir);
      for (std::size_t i = 0; i < z.traced_runs; ++i) {
        append_run(w, plan_run(opt.seed, next_run++), rec, ledger, out);
        traced_cells += kKernelsPerRun * 6;
      }
    }
    m.set("store.append_us_per_cell", 1e6 *
                                          (rec->total_self("store.add_cell") +
                                           rec->total_self("store.commit")) /
                                          static_cast<double>(traced_cells));
    m.set("store.finish_run_ms",
          1e3 * median(rec->durations("store.finish_run")));
    QueryStats traced;
    const auto start = Clock::now();
    while (traced.lookup_s.size() < 20 || since(start) < opt.seconds * 0.25) {
      lookup(dir, ledger, rng, rec, traced, out);
    }
    m.set("store.catalog_ms", 1e3 * median(rec->durations("store.query_open")));
    m.set("store.point_decode_ms", 1e3 * median(rec->durations("store.run")));
    m.set("bench.trace_overhead_pct",
          100.0 * (median(traced.lookup_s) / median(qs.lookup_s) - 1.0));
  }
  fs::remove_all(dir);
}

}  // namespace rperf::bench
