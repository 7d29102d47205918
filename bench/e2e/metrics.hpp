// The metric catalogue of rperf_bench: every end-to-end and per-layer
// metric, with its unit. BENCHMARK.json at the repository root lists the
// same names and units (plus each metric's direction and bound); run.py
// refuses a run whose output disagrees with it.
//
// Every workload reports every metric. A per-layer metric of a layer the
// workload bypasses reads 0 — e.g. sandbox.spawns on sweep_inproc — which
// is the prediction "no change" made checkable. End-to-end metrics are
// never 0.
#pragma once

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "instrument/json.hpp"

namespace rperf::bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Measured with tracing off, on every workload.
inline constexpr MetricDef kEndToEnd[] = {
    {"cells_per_s", "cells/s"},
    {"request_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// One layer each, named after the repository's modules.
inline constexpr MetricDef kPerLayer[] = {
    // suite: the executor and kernel lifecycle
    {"suite.construct_s", "s"},
    {"suite.setup_ms", "ms"},
    {"suite.checksum_ms", "ms"},
    {"suite.kernel_s", "s"},
    {"suite.residual_s", "s"},
    {"suite.cell_ms_p50", "ms"},
    {"suite.cell_ms_tail", "ms"},
    {"suite.cell_ms_tail_pct", "percentile"},
    {"suite.cell_samples", "count"},
    {"suite.checksum_self_s", "s"},
    // mem: pooled arena and dataset cache
    {"mem.pool_hit_frac", "fraction"},
    {"mem.cache_hit_frac", "fraction"},
    {"mem.cache_skipped", "count"},
    {"mem.pool_high_water_mb", "MiB"},
    {"mem.setup_self_s", "s"},
    // port: the abstraction under study
    {"port.kernel_self_s", "s"},
    {"port.overhead_seq", "ratio"},
    {"port.overhead_omp", "ratio"},
    {"port.lambda_over_base_seq", "ratio"},
    {"port.lambda_over_base_omp", "ratio"},
    {"port.raja_over_base_seq.Algorithm", "ratio"},
    {"port.raja_over_base_seq.Apps", "ratio"},
    {"port.raja_over_base_seq.Basic", "ratio"},
    {"port.raja_over_base_seq.Lcals", "ratio"},
    {"port.raja_over_base_seq.Polybench", "ratio"},
    {"port.raja_over_base_seq.Stream", "ratio"},
    {"port.raja_over_base_omp.Algorithm", "ratio"},
    {"port.raja_over_base_omp.Apps", "ratio"},
    {"port.raja_over_base_omp.Basic", "ratio"},
    {"port.raja_over_base_omp.Lcals", "ratio"},
    {"port.raja_over_base_omp.Polybench", "ratio"},
    {"port.raja_over_base_omp.Stream", "ratio"},
    {"port.omp_speedup", "ratio"},
    // kernels: the measured loops themselves
    {"kernels.gbps_computed", "GB/s"},
    {"kernels.gbps_computed.Algorithm", "GB/s"},
    {"kernels.gbps_computed.Apps", "GB/s"},
    {"kernels.gbps_computed.Basic", "GB/s"},
    {"kernels.gbps_computed.Lcals", "GB/s"},
    {"kernels.gbps_computed.Polybench", "GB/s"},
    {"kernels.gbps_computed.Stream", "GB/s"},
    {"kernels.checksum_exact_frac", "fraction"},
    {"kernels.time_skew", "ratio"},
    // instrument: profile codecs and profile files
    {"instrument.wire_encode_us_per_cell", "us"},
    {"instrument.wire_decode_us_per_cell", "us"},
    {"instrument.json_encode_us_per_cell", "us"},
    {"instrument.wire_bytes_per_cell", "B"},
    {"instrument.json_bytes_per_cell", "B"},
    {"instrument.write_profiles_ms", "ms"},
    // sandbox: the supervised worker pool
    {"sandbox.spawns", "count"},
    {"sandbox.recycles", "count"},
    {"sandbox.jobs_dispatched", "count"},
    {"sandbox.affinity_hit_frac", "fraction"},
    {"sandbox.ring_fallbacks", "count"},
    {"sandbox.ring_payload_mb", "MiB"},
    {"sandbox.child_cpu_s", "s"},
    {"sandbox.core_util", "fraction"},
    {"sandbox.dispatch_residual_s", "s"},
    // store: ledger writer, index and query planner
    {"store.cells_landed_frac", "fraction"},
    {"store.append_us_per_cell", "us"},
    {"store.finish_run_ms", "ms"},
    {"store.bytes_per_cell", "B"},
    {"store.catalog_ms", "ms"},
    {"store.point_decode_ms", "ms"},
    {"store.indexed_segment_frac", "fraction"},
    {"store.lookup_ms_tail", "ms"},
    {"store.lookup_ms_tail_pct", "percentile"},
    {"store.lookup_samples", "count"},
    {"store.kernel_query_ms_p50", "ms"},
    {"store.bloom_pruned_frac", "fraction"},
    {"store.scan_s", "s"},
    {"store.scan_1t_s", "s"},
    {"store.scan_4t_s", "s"},
    {"store.scan_speedup_4t", "ratio"},
    {"store.query_warnings", "count"},
    // bench: the benchmark's own accounting
    {"bench.trace_overhead_pct", "%"},
    {"bench.trace_sum_err_pct", "%"},
    {"bench.fail_frac", "fraction"},
};

/// Values for one workload, keyed by catalogue name. Every catalogue
/// metric starts at 0; setting a name outside the catalogue is a bug and
/// throws, so a typo cannot silently leave a metric at 0.
class Metrics {
 public:
  Metrics() {
    for (const MetricDef& d : kEndToEnd) values_[d.name] = 0.0;
    for (const MetricDef& d : kPerLayer) values_[d.name] = 0.0;
  }

  void set(const std::string& name, double value) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("rperf_bench: metric not in catalogue: " + name);
    }
    it->second = std::isfinite(value) ? value : 0.0;
  }

  [[nodiscard]] double get(const std::string& name) const {
    return values_.at(name);
  }

  /// {name: {"value": v, "unit": u}} for every catalogue metric.
  [[nodiscard]] json::Object to_object() const {
    json::Object out;
    auto add = [&](const MetricDef& d) {
      json::Object m;
      m["value"] = values_.at(d.name);
      m["unit"] = d.unit;
      out[d.name] = std::move(m);
    };
    for (const MetricDef& d : kEndToEnd) add(d);
    for (const MetricDef& d : kPerLayer) add(d);
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace rperf::bench
