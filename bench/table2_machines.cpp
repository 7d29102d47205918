// Table II: the four experiment machines with peak and achieved rates.
// Achieved FLOPS come from Basic_MAT_MAT_SHARED and achieved bandwidth
// from Stream_TRIAD — exactly the two probes the paper uses — evaluated
// through the simulated-machine backend. A HOST row reports a *real
// measured* run of both probes on this machine for comparison.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "suite/executor.hpp"

namespace {

struct Achieved {
  double tflops = 0.0;
  double tbs = 0.0;
};

Achieved simulated_achieved(const rperf::machine::MachineModel& m) {
  using namespace rperf;
  Achieved a;
  for (const auto& r : analysis::simulate_suite(m)) {
    if (r.kernel == "Basic_MAT_MAT_SHARED") {
      a.tflops = r.prediction.flop_rate / 1e12;
    }
    if (r.kernel == "Stream_TRIAD") {
      a.tbs = (r.prediction.read_bw + r.prediction.write_bw) / 1e12;
    }
  }
  return a;
}

}  // namespace

int main() {
  using namespace rperf;

  std::printf("Table II: machines, peak and achieved FLOPS / bandwidth\n");
  bench::print_rule(118);
  std::printf("%-12s %-14s %-24s %5s | %8s %8s %10s %6s | %8s %8s %10s %6s\n",
              "Shorthand", "System", "Architecture", "Units", "TF/unit",
              "TF/node", "MAT_MAT TF", "% exp", "TB/s/u", "TB/s/n",
              "TRIAD TB/s", "% exp");
  bench::print_rule(118);
  for (const auto& m : machine::paper_machines()) {
    const Achieved a = simulated_achieved(m);
    std::printf(
        "%-12s %-14s %-24s %5d | %8.1f %8.1f %10.1f %6.1f | %8.1f %8.1f "
        "%10.1f %6.1f\n",
        m.shorthand.c_str(), m.system_name.c_str(), m.architecture.c_str(),
        m.units_per_node, m.peak_tflops_unit, m.peak_tflops_node, a.tflops,
        100.0 * a.tflops / m.peak_tflops_node, m.peak_bw_unit_tbs,
        m.peak_bw_node_tbs, a.tbs, 100.0 * a.tbs / m.peak_bw_node_tbs);
  }
  bench::print_rule(118);

  // Real measured row for this host.
  suite::RunParams params;
  params.kernel_filter = {"Basic_MAT_MAT_SHARED", "Stream_TRIAD"};
  params.variant_filter = {suite::VariantID::Base_OpenMP};
  params.size_factor = 0.25;
  params.npasses = 2;
  suite::Executor exec(params);
  exec.run();
  const auto* matmat = exec.find_kernel("Basic_MAT_MAT_SHARED");
  const auto* triad = exec.find_kernel("Stream_TRIAD");
  double t_mm = -1.0;
  double t_tr = -1.0;
  for (const auto& r : exec.results()) {
    if (r.kernel == matmat->name()) t_mm = r.time_per_rep_sec;
    if (r.kernel == triad->name()) t_tr = r.time_per_rep_sec;
  }
  const double gflops = matmat->traits().flops / t_mm / 1e9;
  const double gbs = triad->traits().bytes_total() / t_tr / 1e9;
  std::printf("%-12s %-14s %-24s %5d | measured MAT_MAT %.2f GFLOPS, "
              "TRIAD %.2f GB/s (Base_OpenMP, real run)\n",
              "HOST", "local", "this machine", 1, gflops, gbs);
  return 0;
}
