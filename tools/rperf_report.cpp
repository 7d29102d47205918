// rperf-report — query .cali.json profiles (the cali-query substitute).
// kUsage below lists the modes, flags and exit codes (--help prints it).
//
// Analysis runs over one thicket::Thicket, whichever the source: a
// directory of .cali.json profiles, or the profiles of the runs selected
// from a --store (each tagged with a run_id metadata key). One parser
// reads every flag before any input, so flag order never changes the
// output. --hwc derives per-kernel rates from the PAPI_* region metrics
// (measured or simulated; hwc_source says which), TMA level-1 fractions
// and the paper's Fig-6/7 Ward dendrogram over them. A crashes.jsonl in
// DIR (written by rajaperf --isolate) adds a crash summary and exit 4.
//
// The store keeps its own verbs: the run listing, the bloom-pruned
// --kernel search, --fsck [--repair], a selected run's header lines, and
// under --hwc each run's counter-record line. Queries plan through the
// MANIFEST.rps index (store/query.hpp), whose damage only costs speed and
// a warning; damaged records exit 5. --no-index forces full scans.
//
// --trace reads a Chrome/Perfetto trace written by rajaperf --trace: a
// summary plus the top-N regions by exclusive time, or with --flamegraph
// folded-stack lines ("proc;a;b usec") for flamegraph.pl or speedscope.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cluster.hpp"
#include "analysis/thicket.hpp"
#include "counters/perf_event.hpp"
#include "instrument/json.hpp"
#include "instrument/trace_export.hpp"
#include "store/query.hpp"
#include "store/store.hpp"
#include "suite/checkpoint.hpp"

namespace {

namespace store = rperf::store;
namespace thicket = rperf::thicket;

constexpr const char* kUsage = R"(usage: rperf-report DIR [ANALYSIS]
       rperf-report --store S [--run ID] [ANALYSIS] [--threads N] [--no-index]
       rperf-report --store S --kernel K [--threads N] [--no-index]
       rperf-report --store S --fsck [--repair] [--threads N]
       rperf-report --trace FILE [--top N] [--flamegraph]
ANALYSIS, the same over a profile directory and over the store's runs:
  --metric M           metric to tabulate and rank (default time)
  --label KEY          metadata key labelling the columns (default variant)
  --top N              keep the N nodes with the largest mean metric
  --groupby KEY        render the view once per value of metadata KEY
 and at most one view besides the default table:
  --hwc                counter rates, TMA fractions, Ward clustering
  --stats NODE METRIC  statistics of METRIC at NODE across profiles
  --compare OTHER      per-node ratio of OTHER to this side; OTHER is a
    [--threshold T]    directory, or with --store a run prefix (needs --run);
                       exit 3 when a ratio leaves [1/T, T] (T >= 1, def. 1.1)
With --store, neither --run nor ANALYSIS lists the runs; ANALYSIS without
--run reads every run. --repair quarantines damage, fixes the index.
exit codes: 0 ok; 1 read error, run not found or no --stats values; 2 usage
  (incl. bad N or T, two views, an ambiguous run prefix, a --groupby key no
  profile carries); 3 regressions; 4 crash records in DIR / store torn
  journal tail; 5 store or profile corrupt beyond repair; 70 unknown error
)";

/// Parse the value of numeric option `flag`. False, after a usage message
/// naming the flag, unless all of `text` is one finite number of type T,
/// no less than `min`.
template <typename T>
bool parse_value(const char* flag, const char* text, T& out, T min = T{}) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec == std::errc() && ptr == end && ptr != text &&
      std::isfinite(static_cast<double>(out)) && out >= min) {
    return true;
  }
  std::fprintf(stderr, "%s wants a number >= %g (got '%s')\n", flag,
               static_cast<double>(min), text);
  return false;
}

/// Render DIR/crashes.jsonl (if present) and report whether any worker
/// crashes are on record.
bool print_crash_summary(const std::string& dir) {
  const rperf::suite::Checkpoint checkpoint(dir);
  // A torn record is dropped: the summary under-counts that cell's crashes.
  const auto cells = checkpoint.load_crashes("crash record");
  if (cells.empty()) return false;

  std::printf("\nCrash summary (%s):\n", checkpoint.crashes_path().c_str());
  std::printf("  %-52s %8s %-12s %-10s %s\n", "Cell", "crashes", "last",
              "signal", "quarantined");
  for (const auto& [cell, cc] : cells) {
    std::printf("  %-52s %8d %-12s %-10s %s\n", cell.c_str(), cc.crashes,
                cc.last_status.c_str(), cc.last_signal.c_str(),
                cc.quarantined ? "yes" : "no");
  }
  return true;
}

/// `rperf-report --trace FILE [--top N] [--flamegraph]`.
int trace_mode(int argc, char** argv) {
  namespace cali = rperf::cali;
  if (argc < 3) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string path = argv[2];
  std::size_t top_n = 10;
  bool flamegraph = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      if (!parse_value("--top", argv[++i], top_n)) return 2;
    } else if (std::strcmp(argv[i], "--flamegraph") == 0) {
      flamegraph = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
  }
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "error: cannot open trace file: %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const cali::ChromeTrace trace = cali::chrome_trace_parse(buffer.str());

  if (flamegraph) {
    // Folded stacks on stdout, ready for flamegraph.pl / speedscope.
    for (const auto& line : cali::fold_stacks(trace)) {
      std::printf("%s %.0f\n", line.stack.c_str(), line.usec);
    }
    return 0;
  }

  std::printf("%s: %zu process%s, %zu thread row%s, %zu spans, "
              "%zu counter samples\n",
              path.c_str(), trace.process_count(),
              trace.process_count() == 1 ? "" : "es", trace.thread_count(),
              trace.thread_count() == 1 ? "" : "s", trace.spans.size(),
              trace.counter_events);
  for (const auto& [pid, name] : trace.process_names) {
    std::printf("  pid %d: %s\n", pid, name.c_str());
  }
  const auto overhead = trace.meta.find("trace_overhead_pct");
  if (overhead != trace.meta.end()) {
    std::printf("recorded trace overhead: %s%% of wall time\n",
                overhead->second.c_str());
  }
  std::printf("\nTop %zu regions by exclusive time:\n", top_n);
  std::printf("  %-44s %12s %12s %8s\n", "Region", "excl (ms)", "incl (ms)",
              "count");
  for (const auto& r : cali::top_exclusive(trace, top_n)) {
    std::printf("  %-44s %12.3f %12.3f %8llu\n", r.name.c_str(),
                r.exclusive_us / 1e3, r.inclusive_us / 1e3,
                static_cast<unsigned long long>(r.count));
  }
  return 0;
}

enum class View { Table, Hwc, Stats, Compare };

/// Every flag of the profile-directory and store modes. All of them are
/// parsed before any input is read.
struct Options {
  View view = View::Table;
  bool analysis = false;  ///< any analysis flag given
  std::string metric = "time";
  std::string label = "variant";
  std::string groupby;
  std::size_t top = 0;  ///< 0 = every node
  std::string stats_node;
  std::string stats_metric;
  std::string compare;  ///< DIR2, or with --store a run prefix
  double threshold = 1.1;
  std::string run;  ///< this and the rest are --store only
  std::string kernel;
  unsigned threads = 0;
  bool use_index = true;
  bool fsck = false;
  bool repair = false;
};

/// Parse argv[first..] into `o`; `from_store` admits the store-only
/// flags. False, after a message on stderr, on a bad flag, value or
/// combination.
bool parse_options(int argc, char** argv, int first, bool from_store,
                   Options& o) {
  static const std::set<std::string> kAnalysis = {
      "--metric", "--label", "--groupby", "--top",
      "--hwc",    "--stats", "--compare", "--threshold"};
  int views = 0;  // --hwc, --stats and --compare given
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    o.analysis = o.analysis || kAnalysis.count(flag) > 0;
    if (flag == "--metric" && has_value) {
      o.metric = argv[++i];
    } else if (flag == "--label" && has_value) {
      o.label = argv[++i];
    } else if (flag == "--groupby" && has_value) {
      o.groupby = argv[++i];
    } else if (flag == "--top" && has_value) {
      if (!parse_value("--top", argv[++i], o.top)) return false;
    } else if (flag == "--hwc") {
      o.view = View::Hwc;
      ++views;
    } else if (flag == "--stats" && i + 2 < argc) {
      o.view = View::Stats;
      ++views;
      o.stats_node = argv[++i];
      o.stats_metric = argv[++i];
    } else if (flag == "--compare" && has_value) {
      o.view = View::Compare;
      ++views;
      o.compare = argv[++i];
    } else if (flag == "--threshold" && has_value) {
      if (!parse_value("--threshold", argv[++i], o.threshold, 1.0)) {
        return false;
      }
    } else if (from_store && flag == "--run" && has_value) {
      o.run = argv[++i];
    } else if (from_store && flag == "--kernel" && has_value) {
      o.kernel = argv[++i];
    } else if (from_store && flag == "--threads" && has_value) {
      if (!parse_value("--threads", argv[++i], o.threads)) return false;
    } else if (from_store && flag == "--no-index") {
      o.use_index = false;
    } else if (from_store && flag == "--fsck") {
      o.fsck = true;
    } else if (from_store && flag == "--repair") {
      o.repair = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return false;
    }
  }
  if (views > 1) {
    std::fprintf(stderr, "give at most one of --hwc, --stats and --compare\n");
    return false;
  }
  if (from_store && o.view == View::Compare && o.run.empty()) {
    std::fprintf(stderr, "--compare with --store needs --run\n");
    return false;
  }
  if (!o.kernel.empty() && (o.analysis || !o.run.empty())) {
    std::fprintf(stderr, "--kernel takes no --run or analysis flags\n");
    return false;
  }
  return true;
}

/// The --hwc view: per-node rates from the PAPI_* region metrics (mean
/// across profiles: IPC, branch mispredicts per branch, cache misses per
/// kilo-instruction), TMA level-1 fractions via hwc::measured_tma, and
/// given >= 2 nodes with TMA data the paper's Fig-6/7 view: a Ward
/// dendrogram over the 5-dim TMA signatures, cut at distance 1.4.
int hwc_view(const thicket::Thicket& tk, const std::string& where) {
  namespace analysis = rperf::analysis;
  std::vector<std::string> papi;
  for (const auto& m : tk.metrics()) {
    if (m.rfind("PAPI_", 0) == 0) papi.push_back(m);
  }
  if (papi.empty()) {
    std::fprintf(stderr, "error: no PAPI_* metrics in %s (rerun rajaperf "
                         "with --hwc)\n", where.c_str());
    return 1;
  }
  // Counter provenance is run metadata; profiles mixing measured and
  // simulated counters report "mixed".
  std::string source;
  std::string reason;
  for (std::size_t p = 0; p < tk.num_profiles(); ++p) {
    const auto& md = tk.metadata(p);
    const auto src = md.find("hwc_source");
    if (src == md.end()) continue;
    source = source.empty() || source == src->second ? src->second : "mixed";
    const auto why = md.find("hwc_unavailable_reason");
    if (why != md.end() && reason.empty()) reason = why->second;
  }
  if (source.empty()) source = "unknown";
  std::printf("hardware counters over %zu profile(s) in %s (source: %s)\n",
              tk.num_profiles(), where.c_str(), source.c_str());
  if (!reason.empty()) std::printf("  degraded: %s\n", reason.c_str());
  std::printf("  %-40s %8s %8s %9s %9s %s\n", "Kernel", "IPC", "BrMsp%",
              "L2DCM/kI", "L3TCM/kI", "source");
  std::vector<std::string> labels;
  std::vector<std::vector<double>> points;  ///< TMA signatures
  for (const auto& node : tk.nodes()) {
    std::map<std::string, double> c;
    for (const auto& m : papi) {
      const auto s = tk.stats(node, m);
      if (s.count > 0) c[m] = s.mean;
    }
    if (c.empty()) continue;
    auto get = [&c](const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? 0.0 : it->second;
    };
    const double cyc = get("PAPI_TOT_CYC");
    const double ins = get("PAPI_TOT_INS");
    const double br = get("PAPI_BR_INS");
    std::printf("  %-40s %8.2f %8.2f %9.2f %9.2f %s\n", node.c_str(),
                cyc > 0.0 ? ins / cyc : 0.0,
                br > 0.0 ? get("PAPI_BR_MSP") / br * 100.0 : 0.0,
                ins > 0.0 ? get("PAPI_L2_DCM") / ins * 1e3 : 0.0,
                ins > 0.0 ? get("PAPI_L3_TCM") / ins * 1e3 : 0.0,
                source.c_str());
    const auto tma = rperf::hwc::measured_tma(c);
    if (tma.sum() > 0.0) {
      labels.push_back(node);
      points.push_back({tma.frontend_bound, tma.bad_speculation,
                        tma.retiring, tma.core_bound, tma.memory_bound});
    }
  }
  if (points.empty()) return 0;
  std::printf("\nTMA level-1 fractions (measured_tma over the counters):\n");
  std::printf("  %-40s %9s %9s %9s %9s %9s\n", "Kernel", "frontend",
              "badspec", "retiring", "core", "memory");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& t = points[i];
    std::printf("  %-40s %9.3f %9.3f %9.3f %9.3f %9.3f\n", labels[i].c_str(),
                t[0], t[1], t[2], t[3], t[4]);
  }
  if (points.size() < 2) return 0;
  const auto links = analysis::ward_linkage(points);
  const auto flat = analysis::fcluster(links, points.size(), 1.4);
  const int k = *std::max_element(flat.begin(), flat.end()) + 1;
  std::printf("\nWard clustering over TMA signatures "
              "(cut at 1.4: %d cluster(s)):\n%s",
              k, analysis::render_dendrogram(links, labels).c_str());
  for (int cluster = 0; cluster < k; ++cluster) {
    std::printf("  cluster %d:", cluster);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      if (flat[i] == cluster) std::printf(" %s", labels[i].c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// Render the chosen view of `all` (narrowed by --top) and return its
/// exit code. `other` is the --compare side.
int render_view(const Options& o, const thicket::Thicket& all,
                const thicket::Thicket& other, const std::string& where) {
  const auto top = o.top > 0 ? all.top(o.metric, o.top) : thicket::Thicket();
  const thicket::Thicket& tk = o.top > 0 ? top : all;
  switch (o.view) {
    case View::Table:
      std::printf("%zu profiles, %zu nodes, metrics:", tk.num_profiles(),
                  tk.nodes().size());
      for (const auto& m : tk.metrics()) std::printf(" %s", m.c_str());
      std::printf("\n\n%s", tk.table(o.metric, o.label).c_str());
      return 0;
    case View::Hwc:
      return hwc_view(tk, where);
    case View::Stats: {
      const auto s = tk.stats(o.stats_node, o.stats_metric);
      if (s.count == 0) {
        std::fprintf(stderr, "error: no %s values at node %s in %s\n",
                     o.stats_metric.c_str(), o.stats_node.c_str(),
                     where.c_str());
        return 1;
      }
      std::printf("%s / %s over %zu profiles: mean=%g median=%g "
                  "stddev=%g min=%g max=%g\n",
                  o.stats_node.c_str(), o.stats_metric.c_str(), s.count,
                  s.mean, s.median, s.stddev, s.min, s.max);
      return 0;
    }
    case View::Compare: {
      const auto rows = thicket::compare(tk, other, o.metric);
      std::printf("%s", thicket::render_comparison(rows).c_str());
      const auto flagged = thicket::outliers(rows, o.threshold);
      std::printf("\n%zu of %zu nodes outside [1/%.2f, %.2f]:\n",
                  flagged.size(), rows.size(), o.threshold, o.threshold);
      for (const auto& r : flagged) {
        std::printf("  %-34s %.3fx %s\n", r.node.c_str(), r.ratio,
                    r.ratio > 1.0 ? "REGRESSION" : "improvement");
      }
      return flagged.empty() ? 0 : 3;
    }
  }
  return 70;
}

/// Pool and worker-pool summary lines (run metadata the executor records
/// identically in every profile of a run): setup amortization, and what
/// crash containment cost the sweep.
void print_sweep_summary(const thicket::Thicket& tk) {
  using Metadata = std::map<std::string, std::string>;
  auto find = [&tk](const char* key) -> const Metadata* {
    for (std::size_t i = 0; i < tk.num_profiles(); ++i) {
      if (tk.metadata(i).count(key) > 0) return &tk.metadata(i);
    }
    return nullptr;
  };
  // A value that is not one number is corrupt profile data (exit 5).
  auto get = [](const Metadata& md, const char* key) {
    const auto it = md.find(key);
    if (it == md.end()) return 0.0;
    const std::string& text = it->second;
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      throw rperf::json::JsonError("metadata '" + std::string(key) +
                                   "' is not a number: '" + text + "'");
    }
    return value;
  };
  if (const auto* md = find("pool_bytes_reserved")) {
    const double allocs = get(*md, "pool_alloc_calls");
    const double hits = get(*md, "pool_reuse_hits");
    std::printf("\npool: %.1f MiB reserved (high water %.1f MiB), "
                "%.0f allocs, %.0f%% hit rate\n",
                get(*md, "pool_bytes_reserved") / (1024.0 * 1024.0),
                get(*md, "pool_high_water_bytes") / (1024.0 * 1024.0),
                allocs, allocs > 0.0 ? hits / allocs * 100.0 : 0.0);
  }
  if (const auto* md = find("pool_workers")) {
    const auto degraded = md->find("sandbox_degraded");
    std::printf("workers: %s pooled, %.0f spawned, %.0f recycled "
                "(%.0f deadline kills, %.0f corrupt frames), "
                "peak queue %.0f%s\n",
                md->at("pool_workers").c_str(), get(*md, "pool_spawns"),
                get(*md, "pool_recycles"), get(*md, "pool_deadline_kills"),
                get(*md, "pool_corrupt_frames"),
                get(*md, "pool_peak_queue_depth"),
                degraded != md->end() && degraded->second == "true"
                    ? " [DEGRADED to in-process]"
                    : "");
  }
}

/// The analysis both sources share: the view over `tk`, once per value of
/// --groupby when given (the --compare side `other` is grouped too and
/// matched by value), then the sweep summary under the table view.
/// Returns the exit code.
int analyze(const Options& o, const thicket::Thicket& tk,
            const thicket::Thicket& other, const std::string& where) {
  int rc = 0;
  if (o.groupby.empty()) {
    rc = render_view(o, tk, other, where);
  } else {
    const auto groups = tk.groupby(o.groupby);
    if (groups.empty()) {
      std::fprintf(stderr, "error: no profile in %s carries metadata key "
                           "'%s'\n", where.c_str(), o.groupby.c_str());
      return 2;
    }
    const auto other_groups = other.groupby(o.groupby);
    const thicket::Thicket none;
    const char* gap = "";
    for (const auto& [value, sub] : groups) {
      std::printf("%s=== %s = %s ===\n", gap, o.groupby.c_str(), value.c_str());
      gap = "\n";
      const auto match = other_groups.find(value);
      const auto& side = match == other_groups.end() ? none : match->second;
      rc = std::max(rc, render_view(o, sub, side, where));
    }
  }
  if (o.view == View::Table) print_sweep_summary(tk);
  return rc;
}

/// Append a stored run's profiles to `out` as the Thicket takes them:
/// tagged with run_id and ordered by <variant>.<tuning>.cali.json, the
/// order from_directory reads the run's --outdir in. A run killed before
/// finish_run stored cells but no profiles; its Passed cells become one
/// partial profile per (variant, tuning) with one root node per kernel.
void add_profiles(const store::StoredRun& run,
                  std::vector<rperf::cali::Profile>& out) {
  std::map<std::string, rperf::cali::Profile> by_file;
  for (const auto& p : run.profiles) {
    by_file[rperf::cali::profile_file_name(p.variant, p.tuning)] = p.profile;
  }
  if (run.profiles.empty()) {
    for (const auto& c : run.cells) {
      if (c.status != "Passed") continue;
      auto& prof = by_file[rperf::cali::profile_file_name(c.variant, c.tuning)];
      prof.metadata = {
          {"variant", c.variant}, {"tuning", c.tuning}, {"partial", "true"}};
      rperf::cali::ProfileNode node;
      node.name = c.kernel;
      node.time_sec = c.time_per_rep_sec * static_cast<double>(c.reps);
      node.visit_count = 1;
      node.metrics = {{"reps", static_cast<double>(c.reps)},
                      {"problem_size", static_cast<double>(c.problem_size)}};
      prof.roots.push_back(std::move(node));
    }
  }
  for (auto& [file, prof] : by_file) {
    prof.metadata["run_id"] = run.run_id;
    out.push_back(std::move(prof));
  }
}

/// --store S: the store-only verbs (fsck, --kernel search, run listing),
/// or the shared analysis over the selected runs' profiles.
int store_mode(const std::string& dir, const Options& o) {
  if (o.fsck) {
    // Exit code is the state *found*: 0 clean, 4 recoverable (torn
    // journal tail), 5 corrupt beyond repair (sealed segment damage).
    // Manifest drift is only a note. With --repair the damage is
    // quarantined and the manifest rewritten, so a rerun reports clean.
    const store::FsckReport report = store::fsck(dir, o.repair, o.threads);
    const char* status = report.status == store::FsckStatus::Clean
                             ? "clean"
                             : report.status == store::FsckStatus::Recoverable
                                   ? "recoverable"
                                   : "corrupt";
    std::printf("fsck %s: %s\n", dir.c_str(), status);
    std::printf("  segments=%zu runs=%zu complete=%zu cells=%zu "
                "tail_bytes=%llu\n",
                report.segments, report.runs, report.complete_runs,
                report.committed_cells,
                static_cast<unsigned long long>(report.tail_bytes));
    for (const auto& note : report.notes) {
      std::printf("  %s\n", note.c_str());
    }
    if (report.repaired) std::printf("  repaired\n");
    switch (report.status) {
      case store::FsckStatus::Clean: return 0;
      case store::FsckStatus::Recoverable: return 4;
      case store::FsckStatus::Corrupt: return 5;
    }
    return 70;
  }

  store::StoreQuery query(dir, {o.threads, o.use_index});
  // Index degradations (missing, unreadable or stale manifest, failed
  // point lookup) are warnings: the answer is still correct, just slower.
  std::size_t warned = 0;
  auto flush_warnings = [&query, &warned] {
    for (; warned < query.warnings().size(); ++warned) {
      std::fprintf(stderr, "warning: %s\n", query.warnings()[warned].c_str());
    }
  };
  flush_warnings();
  if (query.journal_tail_bytes() > 0) {
    std::fprintf(stderr,
                 "warning: torn journal tail of %llu byte(s) (uncommitted; "
                 "--fsck --repair quarantines it)\n",
                 static_cast<unsigned long long>(query.journal_tail_bytes()));
  }

  if (!o.kernel.empty()) {
    // Bloom filters prune segments that provably lack the kernel; the
    // exact check below drops the filter's false positives.
    const std::vector<store::StoredRun> runs =
        query.runs_with_kernel(o.kernel);
    flush_warnings();
    std::size_t hits = 0;
    for (const auto& r : runs) {
      for (const auto& c : r.cells) hits += c.kernel == o.kernel ? 1 : 0;
    }
    std::printf("kernel %s: %zu cell(s) in %s "
                "(%zu segment(s) bloom-pruned)\n",
                o.kernel.c_str(), hits, dir.c_str(),
                query.last_bloom_pruned());
    for (const auto& r : runs) {
      for (const auto& c : r.cells) {
        if (c.kernel != o.kernel) continue;
        std::printf("  run %s %-40s %12.3e s %s\n", r.run_id.c_str(),
                    (c.variant + "/" + c.tuning).c_str(), c.time_per_rep_sec,
                    c.status.c_str());
      }
    }
    return 0;
  }

  if (o.run.empty() && !o.analysis) {
    // Listing comes straight from the catalog: with an intact index no
    // record payload is decoded (the journal is the only file scanned).
    std::printf("%zu run(s) in %s (%zu sealed segment(s), %zu indexed)\n",
                query.catalog().size(), dir.c_str(), query.segment_count(),
                query.indexed_segments());
    for (const auto& entry : query.catalog()) {
      std::printf("run %s complete=%s cells=%zu profiles=%zu file=%s\n",
                  entry.meta.run_id.c_str(),
                  entry.meta.complete ? "yes" : "no",
                  static_cast<std::size_t>(entry.meta.cells),
                  static_cast<std::size_t>(entry.meta.profiles),
                  entry.file.c_str());
    }
    return 0;
  }

  // The selection: --run's run (and --compare's, resolved together in one
  // catalog pass, where an ambiguous prefix is a usage error), or all.
  std::vector<store::StoredRun> named;
  if (!o.run.empty()) {
    std::vector<std::optional<store::StoredRun>> found;
    try {
      found = o.view == View::Compare ? query.resolve({o.run, o.compare})
                                      : std::vector{query.run(o.run)};
    } catch (const store::AmbiguousRunPrefix& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    flush_warnings();
    for (std::size_t i = 0; i < found.size(); ++i) {
      if (!found[i]) {
        std::fprintf(stderr, "error: run %s not found in %s\n",
                     (i == 0 ? o.run : o.compare).c_str(), dir.c_str());
        return 1;
      }
      const store::StoredRun& run = *found[i];
      std::printf("run %s (%s, %zu cells, %zu profiles%s)\n",
                  run.run_id.c_str(), run.complete ? "complete" : "incomplete",
                  run.cells.size(), run.profiles.size(),
                  run.profiles.empty() ? "; partial, rebuilt from cells" : "");
      for (const auto& [key, value] : run.config) {
        std::printf("  config %s=%s\n", key.c_str(), value.c_str());
      }
      for (const auto& [key, value] : run.trace_summary) {
        std::printf("  summary %s=%g\n", key.c_str(), value);
      }
      named.push_back(std::move(*found[i]));
    }
  }
  const std::vector<store::StoredRun>& runs =
      o.run.empty() ? query.all_runs() : named;
  flush_warnings();

  // Multiplex coverage (time_running / time_enabled) is the one counter
  // fact the profiles do not carry; a reader needs it to judge scaling.
  for (const auto& r : runs) {
    if (o.view != View::Hwc || r.counters.empty()) continue;
    double overhead = 0.0;
    double mux_min = 1.0;
    for (const auto& c : r.counters) {
      overhead += c.overhead_sec;
      if (c.time_enabled_ns > 0) {
        mux_min = std::min(mux_min, static_cast<double>(c.time_running_ns) /
                                        static_cast<double>(c.time_enabled_ns));
      }
    }
    std::printf("run %s: %zu counter record(s), read cost %.3f ms, "
                "worst multiplex coverage %.0f%%\n",
                r.run_id.c_str(), r.counters.size(), overhead * 1e3,
                mux_min * 100.0);
  }

  // Under --compare, runs[1] is the other side.
  std::vector<rperf::cali::Profile> base;
  std::vector<rperf::cali::Profile> other;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    add_profiles(runs[i], o.view == View::Compare && i == 1 ? other : base);
  }
  return analyze(o, thicket::Thicket::from_profiles(std::move(base)),
                 thicket::Thicket::from_profiles(std::move(other)), dir);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    if (std::strcmp(argv[1], "--trace") == 0) return trace_mode(argc, argv);
    const bool from_store = std::strcmp(argv[1], "--store") == 0;
    if (from_store && argc < 3) {
      std::fprintf(stderr, "--store needs a store directory\n");
      return 2;
    }
    Options o;
    if (!parse_options(argc, argv, from_store ? 3 : 2, from_store, o)) {
      return 2;
    }
    if (from_store) return store_mode(argv[2], o);
    const auto tk = thicket::Thicket::from_directory(argv[1]);
    const auto other = o.view == View::Compare
                           ? thicket::Thicket::from_directory(o.compare)
                           : thicket::Thicket();
    const int rc = analyze(o, tk, other, argv[1]);
    // Crashes are part of the run's story: surface them and flag the exit
    // code so CI notices a sweep that "completed" by containing crashes.
    if (rc == 0 && o.view == View::Table && print_crash_summary(argv[1])) {
      return 4;
    }
    return rc;
  } catch (const store::CorruptError& e) {
    // Beyond-repair damage gets its own documented exit code so CI can
    // distinguish "store/profile destroyed" from a transient read error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const rperf::json::JsonError& e) {
    // A profile that no longer parses is corrupt data, not a missing
    // file: same beyond-repair contract as a damaged sealed segment.
    std::fprintf(stderr, "error: corrupt profile data: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
    return 70;
  }
}
