// The sweep workloads: sweep_inproc, sweep_pooled and kernels_on.
//
// Each is a closed loop of whole suite sweeps, one client: construct an
// Executor, run() it (sweep_pooled also writes its profiles), and only
// then start the next sweep. Before every sweep the process-wide pool and
// dataset cache are emptied, so each sweep starts as cold as a fresh
// rajaperf process. The inputs are the suite's fixed deterministic fills;
// the seed does not change them.
//
// The traced pass (Options::trace) runs after the timed loop: sweeps with
// spans around Executor construction, run() and write_profiles(),
// alternating with replays of every cell through KernelBase::execute
// whose kernel region boundaries a channel event hook observes, then the
// profile codecs on a traced sweep's profiles.
//
// Pooled sweeps fork workers, which is only safe while this process has
// never entered an OpenMP parallel region; sweep_pooled therefore runs all
// of its pooled sweeps (timed and traced) before any in-process one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "instrument/profile.hpp"
#include "instrument/wire_codec.hpp"
#include "mem/cache.hpp"
#include "mem/pool.hpp"
#include "stats.hpp"
#include "store/store.hpp"
#include "suite/data_utils.hpp"
#include "suite/executor.hpp"
#include "suite/registry.hpp"
#include "workloads.hpp"

namespace rperf::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Executor constructions sampled for setup_s before the first sweep and
/// after every timed sweep: one takes well under a millisecond, so the
/// median needs many samples, spread over the run, to be steady.
constexpr int kSetupRepeats = 25;
/// Profile codec timings repeat over the same profiles this many times.
constexpr int kCodecRepeats = 5;
/// The replay stops once it has this many cell samples (enough for a
/// p99 with ten samples beyond it) or half the time budget is spent.
constexpr std::size_t kReplayTargetSamples = 1000;

const char* const kGroups[] = {"Algorithm", "Apps",      "Basic",
                               "Lcals",     "Polybench", "Stream"};

struct SweepConfig {
  suite::RunParams params;
  bool pooled = false;
  int min_sweeps = 3;
  /// In-process sweeps after the pooled ones: the reference for checksums
  /// and kernel-time skew (not part of the end-to-end figures).
  int reference_sweeps = 0;
};

suite::RunParams parse_params(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"rperf_bench"};
  for (const auto& a : args) argv.push_back(a.c_str());
  return suite::RunParams::parse(static_cast<int>(argv.size()), argv.data());
}

SweepConfig make_config(const std::string& name, bool smoke) {
  SweepConfig c;
  if (name == "kernels_on") {
    // Every O(n) kernel, large enough that each kernel's working set
    // exceeds the per-core L2 and all datasets together exceed the
    // dataset cache: the kernel loops dominate the sweep.
    c.params = parse_params({"--size-factor", smoke ? "0.01" : "1",
                             "--reps-factor", smoke ? "0.01" : "0.25"});
    for (const auto& k : suite::make_kernels(c.params)) {
      if (k->complexity() == suite::Complexity::N) {
        c.params.kernel_filter.push_back(k->name());
      }
    }
    c.min_sweeps = smoke ? 1 : 3;
    return c;
  }
  // The 204 harness-bound cells of bench/sweep_throughput: Stream, Basic
  // and Lcals at full array extents with a small rep budget, minus the
  // compute-bound Basic_MAT_MAT_SHARED whose O(n^3) loop would swamp
  // every harness cost.
  std::vector<std::string> args = {"--groups", "Stream,Basic,Lcals",
                                   "--size-factor", smoke ? "0.01" : "1",
                                   "--reps-factor", smoke ? "0.01" : "0.1"};
  if (name == "sweep_pooled") {
    args.insert(args.end(), {"--workers", "4"});
    c.pooled = true;
    c.min_sweeps = smoke ? 1 : 2;
    c.reference_sweeps = smoke ? 1 : 2;
  } else {
    c.min_sweeps = smoke ? 1 : 5;
  }
  c.params = parse_params(args);
  for (const auto& k : suite::make_kernels(c.params)) {
    if (k->name() != "Basic_MAT_MAT_SHARED") {
      c.params.kernel_filter.push_back(k->name());
    }
  }
  return c;
}

std::string cell_key(const suite::RunResult& r) {
  return r.kernel + "/" + suite::to_string(r.variant) + "/" + r.tuning_name;
}

/// One sweep as the client saw it.
struct Sweep {
  double run_s = 0.0;
  double write_s = 0.0;  ///< write_profiles(), pooled only
  std::vector<suite::RunResult> results;
  std::size_t passed = 0;
  std::size_t landed = 0;  ///< cells committed to the store, pooled only
  mem::PoolStats pool;
  mem::CacheStats cache;
  sandbox::PoolStats sandbox;

  [[nodiscard]] double request_s(bool pooled) const {
    return pooled ? run_s + write_s : run_s;
  }
};

/// Run one sweep. Pooled sweeps get a fresh --outdir and --store under
/// `dir`, which is removed afterwards. The Executor is handed back
/// through `keep` for the caller's profile and kernel access.
Sweep run_sweep(const SweepConfig& cfg, bool pooled, const std::string& dir,
                SpanRecorder* rec, WorkloadResult& out,
                std::unique_ptr<suite::Executor>* keep) {
  mem::pool().release();
  mem::data_cache().clear();
  mem::pool().reset_stats();
  mem::data_cache().reset_stats();

  suite::RunParams p = cfg.params;
  if (!pooled) {
    p.workers = 0;
    p.isolate = suite::IsolationMode::None;
  } else {
    p.output_dir = dir + "/out";
    p.store_dir = dir + "/store";
  }

  Sweep s;
  std::unique_ptr<suite::Executor> ex;
  {
    ScopedSpan span(rec, "suite.construct");
    ex = std::make_unique<suite::Executor>(p);
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan span(rec, "suite.run");
    ex->run();
  }
  s.run_s = since(t1);
  if (pooled) {
    const auto t2 = Clock::now();
    ScopedSpan span(rec, "instrument.write_profiles");
    ex->write_profiles();
    s.write_s = since(t2);
  }
  s.results = ex->results();
  s.pool = mem::pool().stats();
  s.cache = mem::data_cache().stats();
  s.sandbox = ex->pool_stats();

  out.attempted += s.results.size();
  for (const auto& r : s.results) {
    if (r.status == suite::RunStatus::Passed) {
      ++s.passed;
    } else {
      out.fail(cell_key(r) + ": " + suite::to_string(r.status) + " " +
               r.error);
    }
  }
  std::string why;
  if (!ex->checksums_consistent(&why)) {
    out.fail("variants disagree on checksums: " + why);
  }
  if (pooled) {
    if (ex->degraded()) out.fail("pool degraded to in-process execution");
    if (!ex->store_error().empty()) {
      out.fail("store failed: " + ex->store_error());
    }
    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(p.output_dir)) {
      if (e.path().string().ends_with(".cali.json")) ++files;
    }
    if (files != ex->profiles().size()) {
      out.fail("wrote " + std::to_string(files) + " profiles, expected " +
               std::to_string(ex->profiles().size()));
    }
    try {
      const store::StoreReader reader(p.store_dir);
      if (const store::StoredRun* run = reader.find("")) {
        s.landed = run->complete ? run->cells.size() : 0;
      }
    } catch (const std::exception& e) {
      out.fail(std::string("store unreadable: ") + e.what());
    }
    if (s.landed < s.results.size()) {
      out.fail(std::to_string(s.results.size() - s.landed) +
               " cells missing from the store");
    }
    fs::remove_all(dir);
  }
  if (keep) *keep = std::move(ex);
  return s;
}

/// Minimum time per rep of every Passed cell over `sweeps`.
using BestTimes = std::map<std::pair<std::string, suite::VariantID>, double>;

BestTimes best_times(const std::vector<Sweep>& sweeps) {
  BestTimes best;
  for (const Sweep& s : sweeps) {
    for (const auto& r : s.results) {
      if (r.status != suite::RunStatus::Passed || r.tuning != 0) continue;
      auto [it, inserted] =
          best.emplace(std::make_pair(r.kernel, r.variant), r.time_per_rep_sec);
      if (!inserted) it->second = std::min(it->second, r.time_per_rep_sec);
    }
  }
  return best;
}

/// Median time per rep of every Passed cell over `sweeps`, by cell key.
std::map<std::string, double> median_times(const std::vector<Sweep>& sweeps) {
  std::map<std::string, std::vector<double>> times;
  for (const Sweep& s : sweeps) {
    for (const auto& r : s.results) {
      if (r.status == suite::RunStatus::Passed) {
        times[cell_key(r)].push_back(r.time_per_rep_sec);
      }
    }
  }
  std::map<std::string, double> out;
  for (auto& [key, t] : times) out[key] = median(std::move(t));
  return out;
}

/// Geomean over kernels (optionally of one group) of time(num) / time(den).
double variant_ratio(const BestTimes& best, const suite::Executor& ex,
                     suite::VariantID num, suite::VariantID den,
                     const std::string& group = "") {
  std::vector<double> ratios;
  for (const auto& k : ex.kernels()) {
    if (!group.empty() && suite::to_string(k->group()) != group) continue;
    const auto a = best.find({k->name(), num});
    const auto b = best.find({k->name(), den});
    if (a == best.end() || b == best.end() || b->second <= 0.0) continue;
    ratios.push_back(a->second / b->second);
  }
  return geomean(ratios);
}

/// Σ computed bytes per rep ÷ Σ time per rep over every timed cell, GB/s.
double computed_gbps(const BestTimes& best, const suite::Executor& ex,
                     const std::string& group = "") {
  double bytes = 0.0;
  double seconds = 0.0;
  for (const auto& [key, tpr] : best) {
    const suite::KernelBase* k = ex.find_kernel(key.first);
    if (!k) continue;
    if (!group.empty() && suite::to_string(k->group()) != group) continue;
    bytes += k->traits().bytes_total();
    seconds += tpr;
  }
  return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
}

/// Σ setup + checksum + kernel time of one sweep's Passed cells, seconds.
struct CellTime {
  double setup_s = 0.0;
  double checksum_s = 0.0;
  double kernel_s = 0.0;
  [[nodiscard]] double total() const { return setup_s + checksum_s + kernel_s; }
};

CellTime cell_time(const Sweep& s) {
  CellTime t;
  for (const auto& r : s.results) {
    if (r.status != suite::RunStatus::Passed) continue;
    t.setup_s += r.setup_ms * 1e-3;
    t.checksum_s += r.checksum_ms * 1e-3;
    t.kernel_s += r.time_per_rep_sec * static_cast<double>(r.reps);
  }
  return t;
}

template <typename F>
double median_of(const std::vector<Sweep>& sweeps, F&& f) {
  std::vector<double> v;
  v.reserve(sweeps.size());
  for (const Sweep& s : sweeps) v.push_back(f(s));
  return median(std::move(v));
}

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Profile codecs on one sweep's profiles, every call inside a span.
void time_codecs(const suite::Executor& ex, std::size_t cells,
                 SpanRecorder& rec, WorkloadResult& out) {
  const std::vector<cali::Profile> profiles = ex.profiles();
  std::size_t wire_bytes = 0;
  std::size_t json_bytes = 0;
  for (int rep = 0; rep < kCodecRepeats; ++rep) {
    // Self-contained blobs (the store's at-rest form) encode identically
    // in every process, whatever the pool seeded into the dictionary.
    wire::Writer w;
    w.set_self_contained(true);
    {
      ScopedSpan span(&rec, "instrument.wire_encode");
      for (const auto& p : profiles) cali::profile_to_wire(p, w);
    }
    const std::string blob = w.take();
    wire_bytes = blob.size();
    std::vector<cali::Profile> decoded;
    {
      ScopedSpan span(&rec, "instrument.wire_decode");
      wire::Reader r(blob);
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        decoded.push_back(cali::profile_from_wire(r));
      }
    }
    json_bytes = 0;
    {
      ScopedSpan span(&rec, "instrument.json_encode");
      for (const auto& p : profiles) {
        json_bytes += cali::profile_to_value(p).dump().size();
      }
    }
    ++out.attempted;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      if (decoded[i].metadata != profiles[i].metadata ||
          decoded[i].node_count() != profiles[i].node_count()) {
        out.fail("profile wire round trip changed profile " +
                 std::to_string(i));
        break;
      }
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, cells));
  const double reps = static_cast<double>(kCodecRepeats);
  Metrics& m = out.metrics;
  m.set("instrument.wire_encode_us_per_cell",
        rec.total_self("instrument.wire_encode") / reps / n * 1e6);
  m.set("instrument.wire_decode_us_per_cell",
        rec.total_self("instrument.wire_decode") / reps / n * 1e6);
  m.set("instrument.json_encode_us_per_cell",
        rec.total_self("instrument.json_encode") / reps / n * 1e6);
  m.set("instrument.wire_bytes_per_cell", static_cast<double>(wire_bytes) / n);
  m.set("instrument.json_bytes_per_cell", static_cast<double>(json_bytes) / n);
}

/// Replay every cell of `ex` once through KernelBase::execute, in spans:
/// "suite.cell" around execute(), with children "mem.setup",
/// "port.kernel" and "suite.checksum" split at the kernel region's
/// begin/end events. Starts cold, like a sweep.
void replay_pass(const suite::Executor& ex, const suite::RunParams& params,
                 SpanRecorder& rec, WorkloadResult& out) {
  mem::pool().release();
  mem::data_cache().clear();
  ScopedSpan pass(&rec, "suite.replay");
  for (const auto& k : ex.kernels()) {
    for (suite::VariantID vid : k->variants()) {
      if (!params.wants_variant(vid)) continue;
      cali::Channel channel;
      double k0 = -1.0;
      double k1 = -1.0;
      channel.add_event_hook([&](const std::string& region, bool is_begin,
                                 double /*elapsed*/) {
        if (region == k->name()) (is_begin ? k0 : k1) = rec.now();
      });
      const int cell = rec.begin("suite.cell");
      ++out.attempted;
      try {
        k->execute(vid, 0, channel);
      } catch (const std::exception& e) {
        out.fail(k->name() + " replay: " + e.what());
      }
      rec.end(cell);
      // A copy: record() below appends to the span vector.
      const SpanRecorder::Span s = rec.spans()[static_cast<std::size_t>(cell)];
      if (k0 >= s.t0 && k1 >= k0 && s.t1 >= k1) {
        rec.record("mem.setup", s.t0, k0, cell);
        rec.record("port.kernel", k0, k1, cell);
        rec.record("suite.checksum", k1, s.t1, cell);
      } else {
        out.fail(k->name() + " replay: kernel region not observed");
      }
    }
  }
}

}  // namespace

void run_sweep_workload(const std::string& name, const Options& opt,
                        SpanRecorder* rec, WorkloadResult& out) {
  const SweepConfig cfg = make_config(name, opt.smoke);
  const std::string dir = opt.workdir + "/sweep";
  Metrics& m = out.metrics;

  // ----- setup: Executor construction -----
  std::vector<double> construct;
  auto sample_setup = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto t0 = Clock::now();
      const suite::Executor ex(cfg.params);
      construct.push_back(since(t0));
    }
  };
  sample_setup();

  // In-process workloads warm up with one untimed sweep (OpenMP thread
  // start-up, the process's first page faults); it is also their checksum
  // reference. Pooled workers start fresh every sweep, so sweep_pooled
  // gets its in-process reference after its pooled sweeps instead.
  std::vector<Sweep> reference;
  if (!cfg.pooled) {
    reference.push_back(run_sweep(cfg, false, dir, nullptr, out, nullptr));
  }

  // ----- the timed closed loop (untraced) -----
  std::vector<Sweep> timed;
  std::unique_ptr<suite::Executor> last;
  const auto loop_start = Clock::now();
  while (static_cast<int>(timed.size()) < cfg.min_sweeps ||
         since(loop_start) < opt.seconds) {
    timed.push_back(run_sweep(cfg, cfg.pooled,
                              dir + "-" + std::to_string(timed.size()),
                              nullptr, out, &last));
    sample_setup();
    std::fprintf(stderr, "  %s: sweep %zu %.3f s, %zu/%zu cells passed\n",
                 name.c_str(), timed.size(),
                 timed.back().request_s(cfg.pooled), timed.back().passed,
                 timed.back().results.size());
  }

  // ----- traced pass, part 1 -----
  // Traced sweeps (spans around construction, run() and write_profiles())
  // alternate with replay passes, so the replay's layer times can be held
  // against sweeps measured in the same stretch of time. Pooled sweeps
  // must all come before any in-process work (fork safety), so
  // sweep_pooled replays only after its reference sweeps.
  std::vector<Sweep> traced;
  std::unique_ptr<suite::Executor> traced_ex;
  int replays = 0;
  if (rec && cfg.pooled) {
    traced.push_back(run_sweep(cfg, true, dir + "-traced", rec, out,
                               &traced_ex));
  }

  // ----- in-process reference sweeps (pooled only) -----
  for (int i = 0; i < cfg.reference_sweeps; ++i) {
    reference.push_back(run_sweep(cfg, false, dir, nullptr, out, nullptr));
  }

  // ----- traced pass, part 2: replay -----
  if (rec) {
    const auto start = Clock::now();
    do {
      if (!cfg.pooled) {
        traced.push_back(run_sweep(cfg, false, dir, rec, out, &traced_ex));
      }
      replay_pass(*traced_ex, cfg.params, *rec, out);
      ++replays;
    } while (rec->durations("suite.cell").size() < kReplayTargetSamples &&
             since(start) < opt.seconds / 2);
  }

  // Checksums: every timed cell within the suite's tolerance of its
  // in-process reference.
  const Sweep& ref_sweep = reference.front();
  std::map<std::string, long double> ref_sum;
  for (const auto& r : ref_sweep.results) {
    if (r.status == suite::RunStatus::Passed) ref_sum[cell_key(r)] = r.checksum;
  }
  std::size_t compared = 0;
  std::size_t exact = 0;
  for (const Sweep& s : timed) {
    for (const auto& r : s.results) {
      if (r.status != suite::RunStatus::Passed) continue;
      const auto it = ref_sum.find(cell_key(r));
      if (it == ref_sum.end()) {
        out.fail(cell_key(r) + ": no in-process reference");
        continue;
      }
      ++compared;
      if (r.checksum == it->second) ++exact;
      if (!suite::checksums_match(it->second, r.checksum,
                                  cfg.params.checksum_tolerance)) {
        out.fail(cell_key(r) + ": checksum outside tolerance of reference");
      }
    }
  }

  // ----- end to end -----
  m.set("cells_per_s", median_of(timed, [&](const Sweep& s) {
          return frac(static_cast<double>(s.passed), s.request_s(cfg.pooled));
        }));
  const double request_s = median_of(
      timed, [&](const Sweep& s) { return s.request_s(cfg.pooled); });
  m.set("request_ms_p50", 1e3 * request_s);
  m.set("setup_s", median(construct));

  // ----- suite -----
  m.set("suite.setup_ms", 1e3 * median_of(timed, [](const Sweep& s) {
                            return cell_time(s).setup_s;
                          }));
  m.set("suite.checksum_ms", 1e3 * median_of(timed, [](const Sweep& s) {
                               return cell_time(s).checksum_s;
                             }));
  m.set("suite.kernel_s",
        median_of(timed, [](const Sweep& s) { return cell_time(s).kernel_s; }));
  if (cfg.pooled) {
    // The executor caps jobs in flight at the core count.
    const double max_inflight = std::max(
        1u, std::min(static_cast<unsigned>(cfg.params.workers),
                     std::thread::hardware_concurrency()));
    m.set("sandbox.dispatch_residual_s", median_of(timed, [&](const Sweep& s) {
            return s.run_s - cell_time(s).total() / max_inflight;
          }));
  } else {
    m.set("suite.residual_s", median_of(timed, [](const Sweep& s) {
            return s.run_s - cell_time(s).total();
          }));
  }

  // ----- mem (this process's pool and cache; pooled cells use the
  // workers' own, so these read 0 on sweep_pooled) -----
  m.set("mem.pool_hit_frac", median_of(timed, [](const Sweep& s) {
          return frac(static_cast<double>(s.pool.reuse_hits),
                      static_cast<double>(s.pool.alloc_calls));
        }));
  m.set("mem.cache_hit_frac", median_of(timed, [](const Sweep& s) {
          return frac(static_cast<double>(s.cache.hits),
                      static_cast<double>(s.cache.hits + s.cache.misses));
        }));
  m.set("mem.cache_skipped", median_of(timed, [](const Sweep& s) {
          return static_cast<double>(s.cache.skipped);
        }));
  double high_water = 0.0;
  for (const Sweep& s : timed) {
    high_water = std::max(high_water,
                          static_cast<double>(s.pool.high_water_bytes) / kMiB);
  }
  m.set("mem.pool_high_water_mb", high_water);

  // ----- port and kernels (each cell's minimum over the timed sweeps) -----
  const BestTimes best = best_times(timed);
  using V = suite::VariantID;
  m.set("port.overhead_seq",
        variant_ratio(best, *last, V::RAJA_Seq, V::Base_Seq));
  m.set("port.overhead_omp",
        variant_ratio(best, *last, V::RAJA_OpenMP, V::Base_OpenMP));
  m.set("port.lambda_over_base_seq",
        variant_ratio(best, *last, V::Lambda_Seq, V::Base_Seq));
  m.set("port.lambda_over_base_omp",
        variant_ratio(best, *last, V::Lambda_OpenMP, V::Base_OpenMP));
  m.set("port.omp_speedup",
        variant_ratio(best, *last, V::Base_Seq, V::Base_OpenMP));
  m.set("kernels.gbps_computed", computed_gbps(best, *last));
  for (const char* g : kGroups) {
    m.set(std::string("port.raja_over_base_seq.") + g,
          variant_ratio(best, *last, V::RAJA_Seq, V::Base_Seq, g));
    m.set(std::string("port.raja_over_base_omp.") + g,
          variant_ratio(best, *last, V::RAJA_OpenMP, V::Base_OpenMP, g));
    m.set(std::string("kernels.gbps_computed.") + g,
          computed_gbps(best, *last, g));
  }
  m.set("kernels.checksum_exact_frac",
        frac(static_cast<double>(exact), static_cast<double>(compared)));
  if (cfg.pooled) {
    // Pooled time per rep over the in-process reference's, per cell.
    const std::map<std::string, double> ref_t = median_times(reference);
    std::vector<double> skew;
    for (const auto& [key, t] : median_times(timed)) {
      const auto it = ref_t.find(key);
      if (it != ref_t.end() && it->second > 0.0) skew.push_back(t / it->second);
    }
    m.set("kernels.time_skew", geomean(skew));

    // ----- sandbox and store, per pooled sweep -----
    const double nproc = static_cast<double>(
        std::max(1u, std::thread::hardware_concurrency()));
    auto sb = [&](const char* metric, auto&& f) {
      m.set(metric, median_of(timed, f));
    };
    sb("sandbox.spawns", [](const Sweep& s) {
      return static_cast<double>(s.sandbox.spawns);
    });
    sb("sandbox.recycles", [](const Sweep& s) {
      return static_cast<double>(s.sandbox.recycles);
    });
    sb("sandbox.jobs_dispatched", [](const Sweep& s) {
      return static_cast<double>(s.sandbox.jobs_dispatched);
    });
    sb("sandbox.affinity_hit_frac", [](const Sweep& s) {
      return frac(static_cast<double>(s.sandbox.affinity_hits),
                  static_cast<double>(s.sandbox.jobs_dispatched));
    });
    sb("sandbox.ring_fallbacks", [](const Sweep& s) {
      return static_cast<double>(s.sandbox.ring_fallbacks);
    });
    sb("sandbox.ring_payload_mb", [](const Sweep& s) {
      return static_cast<double>(s.sandbox.ring_payload_bytes) / kMiB;
    });
    sb("sandbox.child_cpu_s", [](const Sweep& s) {
      return s.sandbox.child_user_sec + s.sandbox.child_sys_sec;
    });
    sb("sandbox.core_util", [&](const Sweep& s) {
      return frac(s.sandbox.child_user_sec + s.sandbox.child_sys_sec,
                  s.run_s * nproc);
    });
    sb("store.cells_landed_frac", [](const Sweep& s) {
      return frac(static_cast<double>(s.landed),
                  static_cast<double>(s.results.size()));
    });
    sb("instrument.write_profiles_ms",
       [](const Sweep& s) { return s.write_s * 1e3; });
  }

  if (!rec) return;

  // ----- traced pass: spans, codecs, replay -----
  const double traced_request = median_of(
      traced, [&](const Sweep& s) { return s.request_s(cfg.pooled); });
  m.set("bench.trace_overhead_pct",
        100.0 * (traced_request / request_s - 1.0));
  m.set("suite.construct_s", median(rec->durations("suite.construct")));
  time_codecs(*traced_ex, traced.back().passed, *rec, out);

  const double setup_self = rec->total_self("mem.setup") / replays;
  const double kernel_self = rec->total_self("port.kernel") / replays;
  const double checksum_self = rec->total_self("suite.checksum") / replays;
  m.set("mem.setup_self_s", setup_self);
  m.set("port.kernel_self_s", kernel_self);
  m.set("suite.checksum_self_s", checksum_self);
  std::vector<double> cell_ms = rec->durations("suite.cell");
  for (double& v : cell_ms) v *= 1e3;
  const Tail tail = tail_percentile(cell_ms);
  m.set("suite.cell_ms_p50", median(cell_ms));
  m.set("suite.cell_ms_tail", tail.value);
  m.set("suite.cell_ms_tail_pct", tail.percentile);
  m.set("suite.cell_samples", static_cast<double>(tail.samples));
  if (!cfg.pooled) {
    // The replay's layer self times plus the residual outside
    // KernelBase's timers account for the wall time of the sweeps run
    // alternately with the replay.
    const double wall = median_of(traced, [](const Sweep& s) { return s.run_s; });
    const double residual = median_of(traced, [](const Sweep& s) {
      return s.run_s - cell_time(s).total();
    });
    m.set("bench.trace_sum_err_pct",
          100.0 * ((setup_self + kernel_self + checksum_self + residual) /
                       wall -
                   1.0));
  }
}

}  // namespace rperf::bench
