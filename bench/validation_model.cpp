// Model validation: run kernels for real on this host, predict them with
// the local-host machine model, and report measured vs predicted. The
// figure-level analyses only need relative ordering, so the quantity to
// check is whether the model ranks kernels the same way the machine does.
//
// The sweep runs with hardware counters on (--hwc path), so a second
// section cross-validates TMA level-1: fractions recovered from the
// per-kernel counter sample via hwc::measured_tma against the predictor's
// direct TMA attribution, as mean absolute error per kernel group. On a
// host with a PMU that is measured-vs-model validation, printed as "model
// error" and recorded as tma_model_error. Without one the counters are
// simulated from the model itself, so the same numbers only check that
// the counter->TMA inversion is consistent with the model that generated
// the counters: printed as "inversion consistency" and recorded as
// tma_inversion_mae. Results land in --json (default
// BENCH_validation_model.json), which this bench alone writes, tagged with
// the run's hwc_source.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "counters/perf_event.hpp"
#include "instrument/json.hpp"
#include "machine/predictor.hpp"
#include "suite/executor.hpp"

int main(int argc, char** argv) {
  using namespace rperf;
  std::string json_path = "BENCH_validation_model.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  suite::RunParams params;
  params.kernel_filter = {
      "Stream_TRIAD",   "Stream_DOT",         "Basic_DAXPY",
      "Basic_MULADDSUB","Lcals_HYDRO_1D",     "Lcals_EOS",
      "Apps_PRESSURE",  "Polybench_JACOBI_1D","Algorithm_MEMSET",
      "Apps_FIR"};
  params.variant_filter = {suite::VariantID::Base_OpenMP};
  params.size_factor = 0.5;
  params.npasses = 3;
  params.hwc = true;

  suite::Executor exec(params);
  exec.run();

  const auto host = machine::local_host();
  std::printf("Model validation on %s (%d cores): measured (Base_OpenMP) "
              "vs predicted\n",
              host.architecture.c_str(), host.cores_per_node);
  bench::print_rule(96);
  std::printf("%-26s %14s %14s %10s\n", "Kernel", "measured (us)",
              "predicted (us)", "ratio");
  bench::print_rule(96);

  std::vector<double> measured, predicted;
  for (const auto& r : exec.results()) {
    const auto* kernel = exec.find_kernel(r.kernel);
    const double m = r.time_per_rep_sec * 1e6;
    const double p = machine::predict(kernel->traits(), host).time_sec * 1e6;
    measured.push_back(m);
    predicted.push_back(p);
    std::printf("%-26s %14.2f %14.2f %10.2f\n", r.kernel.c_str(), m, p,
                m > 0.0 ? p / m : 0.0);
  }
  bench::print_rule(96);

  // Rank correlation (Spearman on the two orderings).
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      r[order[i]] = static_cast<double>(i);
    }
    return r;
  };
  const auto rm = ranks(measured);
  const auto rp = ranks(predicted);
  double d2 = 0.0;
  const double n = static_cast<double>(rm.size());
  for (std::size_t i = 0; i < rm.size(); ++i) {
    d2 += (rm[i] - rp[i]) * (rm[i] - rp[i]);
  }
  const double spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
  std::printf("Spearman rank correlation (measured vs predicted): %.3f\n",
              spearman);
  std::printf("(the analyses consume orderings and ratios, not absolute "
              "times; correlation near 1 validates the model's use)\n");

  // --- TMA level-1 cross-validation (counters vs predictor). ---
  struct GroupErr {
    std::size_t kernels = 0;
    double mae_sum = 0.0;  ///< per-kernel MAE over the 5 fractions
  };
  std::map<std::string, GroupErr> groups;
  std::size_t tma_kernels = 0;
  double tma_mae_sum = 0.0;
  // Only measured counters are ground truth for the model.
  const bool hwc_measured = exec.hwc_source() == "measured";
  std::printf("\nTMA level-1 %s (hwc_source=%s): counter-derived vs "
              "predicted fractions\n",
              hwc_measured ? "model error"
                       : "inversion consistency (simulated counters vs the "
                         "model that generated them; not model error)",
              exec.hwc_source().empty() ? "none" : exec.hwc_source().c_str());
  bench::print_rule(96);
  std::printf("%-26s %10s %10s %10s %10s %10s %8s\n", "Kernel", "frontend",
              "badspec", "retiring", "core", "memory", "MAE");
  bench::print_rule(96);
  for (const auto& r : exec.results()) {
    if (r.status != suite::RunStatus::Passed || r.hwc.empty()) continue;
    const auto* kernel = exec.find_kernel(r.kernel);
    if (!kernel) continue;
    const machine::TMAFractions from_counters = hwc::measured_tma(r.hwc.values);
    if (from_counters.sum() <= 0.0) continue;
    const machine::TMAFractions from_model =
        machine::predict(kernel->traits(), host).tma;
    const double diffs[5] = {
        from_counters.frontend_bound - from_model.frontend_bound,
        from_counters.bad_speculation - from_model.bad_speculation,
        from_counters.retiring - from_model.retiring,
        from_counters.core_bound - from_model.core_bound,
        from_counters.memory_bound - from_model.memory_bound};
    double mae = 0.0;
    for (const double d : diffs) mae += std::abs(d) / 5.0;
    std::printf("%-26s %+10.3f %+10.3f %+10.3f %+10.3f %+10.3f %8.3f\n",
                r.kernel.c_str(), diffs[0], diffs[1], diffs[2], diffs[3],
                diffs[4], mae);
    GroupErr& g = groups[suite::to_string(r.group)];
    ++g.kernels;
    g.mae_sum += mae;
    ++tma_kernels;
    tma_mae_sum += mae;
  }
  bench::print_rule(96);
  std::printf("%-26s %10s\n", "Group", "mean MAE");
  for (const auto& [name, g] : groups) {
    std::printf("%-26s %10.3f  (%zu kernel%s)\n", name.c_str(),
                g.mae_sum / static_cast<double>(g.kernels), g.kernels,
                g.kernels == 1 ? "" : "s");
  }
  const double overall_mae =
      tma_kernels > 0 ? tma_mae_sum / static_cast<double>(tma_kernels) : 0.0;
  std::printf("overall TMA %s over %zu kernel(s): %.3f "
              "(0 = counter attribution matches the model exactly)\n",
              hwc_measured ? "model error" : "inversion MAE", tma_kernels,
              overall_mae);

  // --- Record. ---
  json::Object hv;
  hv["hwc_source"] = exec.hwc_source();
  hv["hwc_overhead_pct"] = exec.hwc_overhead_pct();
  hv["spearman"] = spearman;
  hv["tma_kernels"] = static_cast<std::int64_t>(tma_kernels);
  const std::string key =
      hwc_measured ? "tma_model_error" : "tma_inversion_mae";
  hv[key] = overall_mae;
  json::Object by_group;
  for (const auto& [name, g] : groups) {
    by_group[name] = g.mae_sum / static_cast<double>(g.kernels);
  }
  hv[key + "_by_group"] = std::move(by_group);
  std::ofstream os(json_path);
  os << json::Value(std::move(hv)).dump(2) << '\n';
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
