// rperf-report — query .cali.json profiles (the cali-query substitute).
//
//   rperf-report DIR [--metric M] [--label KEY] [--stats NODE METRIC]
//                    [--groupby KEY] [--compare DIR2 [--threshold T]]
//                    [--hwc]
//   rperf-report --trace FILE [--top N] [--flamegraph]
//
// Examples:
//   rperf-report out/                       # time table, labelled by variant
//   rperf-report out/ --metric flops
//   rperf-report out/ --stats Stream_TRIAD time
//   rperf-report out/ --groupby tuning
//   rperf-report baseline/ --compare candidate/ --threshold 1.1
//   rperf-report --trace out/trace.json --top 10
//   rperf-report --trace out/trace.json --flamegraph > sweep.folded
//
// --hwc renders the hardware-counter view: per-kernel rates derived from
// the PAPI_* region metrics (IPC, branch mispredict rate, cache misses
// per kilo-instruction), TMA level-1 fractions via hwc::measured_tma, and
// the paper's Fig-6/7 Ward dendrogram over those TMA signatures. Works
// over a profile directory (metrics averaged across profiles, provenance
// from the hwc_source metadata) and over --store ledgers (per-cell
// CounterSet records, including multiplex coverage). Counter values may
// be measured (perf_event_open) or simulated — each row says which.
//
// When DIR holds a crashes.jsonl sidecar (written by rajaperf --isolate),
// a crash summary is appended: per cell, how many times its worker died,
// on which signal, and whether it is quarantined.
//
// --trace mode reads a Chrome/Perfetto trace written by rajaperf --trace:
// the default output is a summary (processes, threads, spans, counters,
// recorded overhead) plus the top-N regions by exclusive time;
// --flamegraph instead emits folded-stack lines ("proc;a;b usec") on
// stdout for flamegraph.pl or speedscope.
//
// --store mode queries the crash-consistent .rps profile store written
// by rajaperf --store: list runs (default), show one run (--run ID
// [--top N]), cross-run diff by kernel (--diff ID1 ID2), ledger-wide
// aggregations (--topn N, --groupby kernel|group|variant, --kernel K),
// and fsck (--fsck [--repair]) which scans every segment and the
// journal, reports, and optionally quarantines damage.
//
// Queries are planned through the store's index: the MANIFEST.rps
// catalog answers listings and point lookups without decoding record
// payloads, its bloom filters prune --kernel scans, and cold full scans
// fan out across --threads N workers. A missing, damaged or stale
// manifest degrades to the full scan with a warning on stderr (fail
// open); damaged records still exit 5 (fail closed). fsck notes a
// manifest that differs from the segments and --repair rewrites it.
// --no-index forces the full-scan path everywhere.
//
// Exit codes: 0 ok; 1 read/analysis error; 2 usage error (including an
// ambiguous --diff run prefix or a non-numeric value for --top, --topn,
// --threads or --threshold); 3 regressions flagged by --compare;
// 4 crash records present in DIR (summary printed — the sweep
// "completed" only by containing worker crashes, so CI should look at
// the crash summary rather than trust the tables alone) or store fsck
// found a recoverable torn journal tail; 5 store or profile corrupt
// beyond repair (sealed segment damage, unparseable profile data);
// 70 unknown (non-std::exception) error.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
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

namespace {

/// Parse the value of numeric option `flag`. False, after a usage message
/// naming the flag, unless all of `text` is one number of type T.
template <typename T>
bool parse_value(const char* flag, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec == std::errc() && ptr == end && ptr != text) return true;
  std::fprintf(stderr, "%s wants a number (got '%s')\n", flag, text);
  return false;
}

/// Derived per-kernel counter row shared by the profile-dir and --store
/// --hwc views: rates a reader compares across kernels, not raw totals.
struct HwcRow {
  std::string label;
  double ipc = 0.0;          ///< instructions per cycle
  double br_msp_pct = 0.0;   ///< branch mispredicts per branch, percent
  double l2_per_ki = 0.0;    ///< PAPI_L2_DCM per kilo-instruction
  double l3_per_ki = 0.0;    ///< PAPI_L3_TCM per kilo-instruction
  rperf::machine::TMAFractions tma;  ///< measured_tma over the counters
  std::string source;
};

HwcRow hwc_row(const std::string& label,
               const std::map<std::string, double>& c,
               const std::string& source) {
  auto get = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  HwcRow row;
  row.label = label;
  const double cyc = get("PAPI_TOT_CYC");
  const double ins = get("PAPI_TOT_INS");
  const double br = get("PAPI_BR_INS");
  row.ipc = cyc > 0.0 ? ins / cyc : 0.0;
  row.br_msp_pct = br > 0.0 ? get("PAPI_BR_MSP") / br * 100.0 : 0.0;
  row.l2_per_ki = ins > 0.0 ? get("PAPI_L2_DCM") / ins * 1e3 : 0.0;
  row.l3_per_ki = ins > 0.0 ? get("PAPI_L3_TCM") / ins * 1e3 : 0.0;
  row.tma = rperf::hwc::measured_tma(c);
  row.source = source;
  return row;
}

/// Render the --hwc tables: counter-derived rates, TMA level-1 fractions,
/// and (given >= 2 rows with TMA data) the paper's Fig-6/7 view — Ward
/// dendrogram over the 5-dim TMA signatures, cut at distance 1.4.
void print_hwc_rows(const std::vector<HwcRow>& rows) {
  namespace analysis = rperf::analysis;
  std::printf("  %-40s %8s %8s %9s %9s %s\n", "Kernel", "IPC", "BrMsp%",
              "L2DCM/kI", "L3TCM/kI", "source");
  for (const auto& r : rows) {
    std::printf("  %-40s %8.2f %8.2f %9.2f %9.2f %s\n", r.label.c_str(),
                r.ipc, r.br_msp_pct, r.l2_per_ki, r.l3_per_ki,
                r.source.c_str());
  }

  std::vector<const HwcRow*> with_tma;
  for (const auto& r : rows) {
    if (r.tma.sum() > 0.0) with_tma.push_back(&r);
  }
  if (with_tma.empty()) return;
  std::printf("\nTMA level-1 fractions (measured_tma over the counters):\n");
  std::printf("  %-40s %9s %9s %9s %9s %9s\n", "Kernel", "frontend",
              "badspec", "retiring", "core", "memory");
  for (const auto* r : with_tma) {
    std::printf("  %-40s %9.3f %9.3f %9.3f %9.3f %9.3f\n", r->label.c_str(),
                r->tma.frontend_bound, r->tma.bad_speculation,
                r->tma.retiring, r->tma.core_bound, r->tma.memory_bound);
  }
  if (with_tma.size() < 2) return;

  std::vector<std::vector<double>> points;
  std::vector<std::string> labels;
  for (const auto* r : with_tma) {
    points.push_back({r->tma.frontend_bound, r->tma.bad_speculation,
                      r->tma.retiring, r->tma.core_bound,
                      r->tma.memory_bound});
    labels.push_back(r->label);
  }
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
}

/// Render DIR/crashes.jsonl (if present) and report whether any worker
/// crashes are on record.
bool print_crash_summary(const std::string& dir) {
  namespace json = rperf::json;
  const std::string path = dir + "/crashes.jsonl";
  if (!std::filesystem::exists(path)) return false;

  struct CellCrashes {
    int crashes = 0;
    std::string last_status;
    std::string last_signal;
    bool quarantined = false;
  };
  std::map<std::string, CellCrashes> cells;
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
      // Torn record from a run that died mid-append. Drop it, but say so:
      // the summary under-counts that cell's crashes.
      std::fprintf(stderr,
                   "warning: %s:%d: dropping truncated crash record\n",
                   path.c_str(), line_no);
      continue;
    }
    const std::string kind = v.string_or("kind", "crash");
    const std::string cell = v.string_or("kernel", "?") + " [" +
                             v.string_or("variant", "?") + "/" +
                             v.string_or("tuning", "?") + "]";
    CellCrashes& cc = cells[cell];
    if (kind == "crash") {
      ++cc.crashes;
      cc.last_status = v.string_or("status", "Crashed");
      cc.last_signal = v.string_or("signal_name", "");
      if (cc.last_signal.empty() && v.contains("exit_code")) {
        cc.last_signal =
            "exit " + std::to_string(
                          static_cast<int>(v.number_or("exit_code", 0.0)));
      }
      cc.quarantined = cc.quarantined || v.bool_or("quarantined", false);
    } else if (kind == "quarantine-skip") {
      cc.quarantined = true;
    }
  }
  if (cells.empty()) return false;

  std::printf("\nCrash summary (%s):\n", path.c_str());
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
    std::fprintf(stderr,
                 "usage: rperf-report --trace FILE [--top N] "
                 "[--flamegraph]\n");
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

/// --store DIR query modes against the crash-consistent .rps profile
/// store: list runs (default, straight from the index catalog), show
/// one run (--run [--top N], indexed point lookup), diff two runs by
/// kernel (--diff, one catalog pass), ledger-wide top cells (--topn),
/// grouped totals (--groupby kernel|group|variant), bloom-pruned kernel
/// search (--kernel), or scan/repair (--fsck [--repair]).
int store_mode(int argc, char** argv) {
  namespace store = rperf::store;
  if (argc < 3) {
    std::fprintf(stderr, "--store needs a store directory\n");
    return 2;
  }
  const std::string dir = argv[2];
  std::string run_prefix;
  std::string diff_a;
  std::string diff_b;
  std::string groupby;
  std::string kernel;
  std::size_t top_n = 10;
  std::size_t topn = 10;
  unsigned threads = 0;
  bool show_run = false;
  bool do_hwc = false;
  bool do_fsck = false;
  bool repair = false;
  bool do_topn = false;
  bool use_index = true;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      run_prefix = argv[++i];
      show_run = true;
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      if (!parse_value("--top", argv[++i], top_n)) return 2;
      show_run = true;
    } else if (std::strcmp(argv[i], "--diff") == 0 && i + 2 < argc) {
      diff_a = argv[++i];
      diff_b = argv[++i];
    } else if (std::strcmp(argv[i], "--topn") == 0 && i + 1 < argc) {
      if (!parse_value("--topn", argv[++i], topn)) return 2;
      do_topn = true;
    } else if (std::strcmp(argv[i], "--groupby") == 0 && i + 1 < argc) {
      groupby = argv[++i];
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      kernel = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_value("--threads", argv[++i], threads)) return 2;
    } else if (std::strcmp(argv[i], "--hwc") == 0) {
      do_hwc = true;
    } else if (std::strcmp(argv[i], "--no-index") == 0) {
      use_index = false;
    } else if (std::strcmp(argv[i], "--fsck") == 0) {
      do_fsck = true;
    } else if (std::strcmp(argv[i], "--repair") == 0) {
      repair = true;
    } else {
      std::fprintf(stderr, "unknown --store option: %s\n", argv[i]);
      return 2;
    }
  }
  if (!groupby.empty() && groupby != "kernel" && groupby != "group" &&
      groupby != "variant") {
    std::fprintf(stderr,
                 "--groupby wants kernel, group, or variant (got %s)\n",
                 groupby.c_str());
    return 2;
  }

  if (do_fsck) {
    // Exit code is the state *found*: 0 clean, 4 recoverable (torn
    // journal tail), 5 corrupt beyond repair (sealed segment damage).
    // Manifest drift is only a note. With --repair the damage is
    // quarantined and the manifest rewritten, so a rerun reports clean.
    const store::FsckReport report = store::fsck(dir, repair, threads);
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

  store::StoreQuery query(dir, {threads, use_index});
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

  if (do_hwc) {
    // Hardware-counter records landed by rajaperf --hwc --store: one
    // typed CounterSet record per cell, reassembled into StoredRun
    // counters by the scanner (fsck structurally checks them the same
    // way). Shows derived rates plus the multiplexing coverage
    // (time_running / time_enabled) a reader needs to judge scaling.
    std::vector<store::StoredRun> runs;
    if (!run_prefix.empty()) {
      const std::optional<store::StoredRun> run = query.run(run_prefix);
      if (!run) {
        std::fprintf(stderr, "error: run %s not found in %s\n",
                     run_prefix.c_str(), dir.c_str());
        return 1;
      }
      runs.push_back(*run);
    } else {
      runs = query.all_runs();
    }
    flush_warnings();
    bool any = false;
    for (const auto& r : runs) {
      if (r.counters.empty()) continue;
      any = true;
      double overhead = 0.0;
      double mux_min = 1.0;
      std::vector<HwcRow> rows;
      for (const auto& c : r.counters) {
        rows.push_back(hwc_row(c.kernel + "/" + c.variant + "/" + c.tuning,
                               c.values, c.source));
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
      print_hwc_rows(rows);
    }
    if (!any) {
      std::fprintf(stderr,
                   "error: no counter records in %s (rerun rajaperf with "
                   "--hwc --store)\n",
                   dir.c_str());
      return 1;
    }
    return 0;
  }

  if (!diff_a.empty()) {
    // Both prefixes resolve against the one catalog (a single ledger
    // pass); an ambiguous prefix is a usage error listing the matches.
    std::vector<std::optional<store::StoredRun>> runs;
    try {
      runs = query.resolve({diff_a, diff_b});
    } catch (const store::AmbiguousRunPrefix& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    flush_warnings();
    if (!runs[0] || !runs[1]) {
      std::fprintf(stderr, "error: run %s not found in %s\n",
                   (!runs[0] ? diff_a : diff_b).c_str(), dir.c_str());
      return 1;
    }
    const store::StoredRun& a = *runs[0];
    const store::StoredRun& b = *runs[1];
    // Cross-run diff by (kernel, variant, tuning): passed cells only.
    std::map<std::string, double> base;
    for (const auto& c : a.cells) {
      if (c.status == "Passed" && c.time_per_rep_sec > 0.0) {
        base[c.kernel + "/" + c.variant + "/" + c.tuning] =
            c.time_per_rep_sec;
      }
    }
    std::printf("diff %s -> %s\n", a.run_id.c_str(), b.run_id.c_str());
    std::printf("  %-52s %12s %12s %8s\n", "Cell", "base (s)", "cand (s)",
                "ratio");
    for (const auto& c : b.cells) {
      if (c.status != "Passed" || c.time_per_rep_sec <= 0.0) continue;
      const std::string key = c.kernel + "/" + c.variant + "/" + c.tuning;
      const auto it = base.find(key);
      if (it == base.end()) continue;
      std::printf("  %-52s %12.3e %12.3e %8.3f\n", key.c_str(), it->second,
                  c.time_per_rep_sec, c.time_per_rep_sec / it->second);
    }
    return 0;
  }

  if (show_run) {
    const std::optional<store::StoredRun> run = query.run(run_prefix);
    flush_warnings();
    if (!run) {
      std::fprintf(stderr, "error: run %s not found in %s\n",
                   run_prefix.c_str(), dir.c_str());
      return 1;
    }
    std::printf("run %s (%s, %zu cells, %zu profiles)\n",
                run->run_id.c_str(),
                run->complete ? "complete" : "incomplete",
                run->cells.size(), run->profiles.size());
    for (const auto& [key, value] : run->config) {
      std::printf("  config %s=%s\n", key.c_str(), value.c_str());
    }
    for (const auto& [key, value] : run->trace_summary) {
      std::printf("  summary %s=%g\n", key.c_str(), value);
    }
    std::vector<const store::CellRecord*> cells;
    for (const auto& c : run->cells) {
      if (c.status == "Passed" && c.time_per_rep_sec > 0.0) {
        cells.push_back(&c);
      }
    }
    std::sort(cells.begin(), cells.end(),
              [](const store::CellRecord* x, const store::CellRecord* y) {
                return x->time_per_rep_sec > y->time_per_rep_sec;
              });
    if (cells.size() > top_n) cells.resize(top_n);
    std::printf("  top %zu cells by time per rep:\n", cells.size());
    for (const auto* c : cells) {
      std::printf("    %-50s %12.3e s\n",
                  (c->kernel + "/" + c->variant + "/" + c->tuning).c_str(),
                  c->time_per_rep_sec);
    }
    return 0;
  }

  if (!kernel.empty()) {
    // Bloom filters prune segments that provably lack the kernel; the
    // exact check below drops the filter's false positives.
    const std::vector<store::StoredRun> runs = query.runs_with_kernel(kernel);
    flush_warnings();
    struct Hit {
      const store::StoredRun* run;
      const store::CellRecord* cell;
    };
    std::vector<Hit> hits;
    for (const auto& r : runs) {
      for (const auto& c : r.cells) {
        if (c.kernel == kernel) hits.push_back({&r, &c});
      }
    }
    std::printf("kernel %s: %zu cell(s) in %s "
                "(%zu segment(s) bloom-pruned)\n",
                kernel.c_str(), hits.size(), dir.c_str(),
                query.last_bloom_pruned());
    for (const auto& h : hits) {
      std::printf("  run %s %-40s %12.3e s %s\n", h.run->run_id.c_str(),
                  (h.cell->variant + "/" + h.cell->tuning).c_str(),
                  h.cell->time_per_rep_sec, h.cell->status.c_str());
    }
    return 0;
  }

  if (!groupby.empty()) {
    // Grouped totals over every passed cell in the ledger. "group" is
    // the suite group: the kernel-name prefix before the first '_'.
    struct Agg {
      std::size_t cells = 0;
      double total = 0.0;
    };
    std::map<std::string, Agg> groups;
    for (const auto& r : query.all_runs()) {
      for (const auto& c : r.cells) {
        if (c.status != "Passed" || c.time_per_rep_sec <= 0.0) continue;
        const std::string key = groupby == "variant" ? c.variant
                                : groupby == "kernel"
                                    ? c.kernel
                                    : c.kernel.substr(0, c.kernel.find('_'));
        Agg& g = groups[key];
        ++g.cells;
        g.total += c.time_per_rep_sec;
      }
    }
    flush_warnings();
    std::vector<std::pair<std::string, Agg>> rows(groups.begin(),
                                                  groups.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& x, const auto& y) {
                return x.second.total > y.second.total;
              });
    if (do_topn && rows.size() > topn) rows.resize(topn);
    std::printf("%zu %s group(s) in %s\n", rows.size(), groupby.c_str(),
                dir.c_str());
    std::printf("  %-40s %8s %14s\n", "Group", "cells", "total (s)");
    for (const auto& [key, g] : rows) {
      std::printf("  %-40s %8zu %14.3e\n", key.c_str(), g.cells, g.total);
    }
    return 0;
  }

  if (do_topn) {
    // Ledger-wide top cells by time per rep, across every run.
    struct Row {
      const store::StoredRun* run;
      const store::CellRecord* cell;
    };
    std::vector<Row> rows;
    for (const auto& r : query.all_runs()) {
      for (const auto& c : r.cells) {
        if (c.status == "Passed" && c.time_per_rep_sec > 0.0) {
          rows.push_back({&r, &c});
        }
      }
    }
    flush_warnings();
    std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
      return x.cell->time_per_rep_sec > y.cell->time_per_rep_sec;
    });
    if (rows.size() > topn) rows.resize(topn);
    std::printf("top %zu cells across %zu run(s) in %s\n", rows.size(),
                query.all_runs().size(), dir.c_str());
    for (const auto& row : rows) {
      std::printf("  %-50s %12.3e s run=%s\n",
                  (row.cell->kernel + "/" + row.cell->variant + "/" +
                   row.cell->tuning)
                      .c_str(),
                  row.cell->time_per_rep_sec, row.run->run_id.c_str());
    }
    return 0;
  }

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

}  // namespace

int main(int argc, char** argv) {
  using namespace rperf;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: rperf-report DIR [--metric M] [--label KEY] "
                 "[--stats NODE METRIC] [--groupby KEY] [--hwc]\n"
                 "                    [--compare DIR2 [--threshold T]]\n"
                 "       rperf-report --trace FILE [--top N] "
                 "[--flamegraph]\n"
                 "       rperf-report --store DIR [--run ID] [--top N] "
                 "[--diff ID1 ID2] [--hwc]\n"
                 "                    [--topn N] "
                 "[--groupby kernel|group|variant] [--kernel K]\n"
                 "                    [--threads N] [--no-index]\n"
                 "       rperf-report --store DIR --fsck [--repair] "
                 "[--threads N]\n"
                 "                    (--repair quarantines damage and "
                 "rewrites a stale MANIFEST.rps)\n"
                 "exit codes: 0 ok, 1 read error, 2 usage (incl. ambiguous "
                 "--diff prefix, non-numeric N or T), 3 regressions,\n"
                 "  4 crash records present in DIR / store recoverable "
                 "(torn journal tail),\n"
                 "  5 store or profile corrupt beyond repair, "
                 "70 unknown error\n");
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "--trace") == 0) return trace_mode(argc, argv);
    if (std::strcmp(argv[1], "--store") == 0) return store_mode(argc, argv);
    const auto tk = thicket::Thicket::from_directory(argv[1]);
    std::string metric = "time";
    std::string label = "variant";
    std::string compare_dir;
    double threshold = 1.1;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--hwc") == 0) {
        // Hardware-counter view: per-kernel rates derived from the PAPI
        // region metrics (mean across profiles), TMA level-1 fractions,
        // and the Fig-6/7 Ward dendrogram over those TMA signatures.
        std::vector<std::string> papi;
        for (const auto& m : tk.metrics()) {
          if (m.rfind("PAPI_", 0) == 0) papi.push_back(m);
        }
        if (papi.empty()) {
          std::fprintf(stderr,
                       "error: no PAPI_* metrics in %s (rerun rajaperf "
                       "with --hwc)\n",
                       argv[1]);
          return 1;
        }
        // Counter provenance is run metadata; a directory mixing measured
        // and simulated profiles reports "mixed".
        std::string source;
        std::string reason;
        for (std::size_t p = 0; p < tk.num_profiles(); ++p) {
          const auto& md = tk.metadata(p);
          const auto src = md.find("hwc_source");
          if (src == md.end()) continue;
          if (source.empty()) {
            source = src->second;
          } else if (source != src->second) {
            source = "mixed";
          }
          const auto why = md.find("hwc_unavailable_reason");
          if (why != md.end() && reason.empty()) reason = why->second;
        }
        if (source.empty()) source = "unknown";
        std::printf("hardware counters over %zu profile(s) in %s "
                    "(source: %s)\n",
                    tk.num_profiles(), argv[1], source.c_str());
        if (!reason.empty()) std::printf("  degraded: %s\n", reason.c_str());
        std::vector<HwcRow> rows;
        for (const auto& node : tk.nodes()) {
          std::map<std::string, double> counters;
          for (const auto& m : papi) {
            const auto s = tk.stats(node, m);
            if (s.count > 0) counters[m] = s.mean;
          }
          if (!counters.empty()) rows.push_back(hwc_row(node, counters, source));
        }
        print_hwc_rows(rows);
        return 0;
      }
      if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc) {
        metric = argv[++i];
      } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
        label = argv[++i];
      } else if (std::strcmp(argv[i], "--stats") == 0 && i + 2 < argc) {
        const std::string node = argv[i + 1];
        const std::string m = argv[i + 2];
        const auto s = tk.stats(node, m);
        std::printf("%s / %s over %zu profiles: mean=%g median=%g "
                    "stddev=%g min=%g max=%g\n",
                    node.c_str(), m.c_str(), s.count, s.mean, s.median,
                    s.stddev, s.min, s.max);
        return 0;
      } else if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
        compare_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
        if (!parse_value("--threshold", argv[++i], threshold)) return 2;
      } else if (std::strcmp(argv[i], "--groupby") == 0 && i + 1 < argc) {
        const std::string key = argv[i + 1];
        for (const auto& [value, sub] : tk.groupby(key)) {
          std::printf("=== %s = %s (%zu profiles) ===\n%s\n", key.c_str(),
                      value.c_str(), sub.num_profiles(),
                      sub.table(metric, label).c_str());
        }
        return 0;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        return 2;
      }
    }
    if (!compare_dir.empty()) {
      const auto cand = thicket::Thicket::from_directory(compare_dir);
      const auto rows = thicket::compare(tk, cand, metric);
      std::printf("%s", thicket::render_comparison(rows).c_str());
      const auto flagged = thicket::outliers(rows, threshold);
      std::printf("\n%zu of %zu nodes outside [1/%.2f, %.2f]:\n",
                  flagged.size(), rows.size(), threshold, threshold);
      for (const auto& r : flagged) {
        std::printf("  %-34s %.3fx %s\n", r.node.c_str(), r.ratio,
                    r.ratio > 1.0 ? "REGRESSION" : "improvement");
      }
      return flagged.empty() ? 0 : 3;
    }
    std::printf("%zu profiles, %zu nodes, metrics:", tk.num_profiles(),
                tk.nodes().size());
    for (const auto& m : tk.metrics()) std::printf(" %s", m.c_str());
    std::printf("\n\n%s", tk.table(metric, label).c_str());

    // Pool summary (recorded by the executor as run metadata; identical in
    // every profile of a run): shows setup amortization at a glance.
    for (std::size_t i = 0; i < tk.num_profiles(); ++i) {
      const auto& md = tk.metadata(i);
      const auto reserved = md.find("pool_bytes_reserved");
      if (reserved == md.end()) continue;
      auto get = [&md](const char* key) {
        const auto it = md.find(key);
        return it == md.end() ? 0.0 : std::stod(it->second);
      };
      const double allocs = get("pool_alloc_calls");
      const double hits = get("pool_reuse_hits");
      std::printf("\npool: %.1f MiB reserved (high water %.1f MiB), "
                  "%.0f allocs, %.0f%% hit rate; cache: %.0f hits, "
                  "%.0f misses\n",
                  std::stod(reserved->second) / (1024.0 * 1024.0),
                  get("pool_high_water_bytes") / (1024.0 * 1024.0), allocs,
                  allocs > 0.0 ? hits / allocs * 100.0 : 0.0,
                  get("cache_hits"), get("cache_misses"));
      break;
    }
    // Worker-pool supervision summary (--workers runs): recycles and their
    // causes, so a report shows what crash containment cost the sweep.
    for (std::size_t i = 0; i < tk.num_profiles(); ++i) {
      const auto& md = tk.metadata(i);
      const auto workers = md.find("pool_workers");
      if (workers == md.end()) continue;
      auto get = [&md](const char* key) {
        const auto it = md.find(key);
        return it == md.end() ? 0.0 : std::stod(it->second);
      };
      const auto degraded = md.find("sandbox_degraded");
      std::printf("workers: %s pooled, %.0f spawned, %.0f recycled "
                  "(%.0f deadline kills, %.0f corrupt frames), "
                  "peak queue %.0f%s\n",
                  workers->second.c_str(), get("pool_spawns"),
                  get("pool_recycles"), get("pool_deadline_kills"),
                  get("pool_corrupt_frames"),
                  get("pool_peak_queue_depth"),
                  degraded != md.end() && degraded->second == "true"
                      ? " [DEGRADED to in-process]"
                      : "");
      break;
    }
    // Crashes are part of the run's story: surface them and flag the exit
    // code so CI notices a sweep that "completed" by containing crashes.
    if (print_crash_summary(argv[1])) return 4;
    return 0;
  } catch (const store::CorruptError& e) {
    // Beyond-repair damage gets its own documented exit code so CI can
    // distinguish "store/profile destroyed" from a transient read error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const json::JsonError& e) {
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
