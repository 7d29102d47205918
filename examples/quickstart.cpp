// Quickstart: run a few kernels across programming-model variants on this
// machine, print timings and achieved bandwidth, and write Caliper-style
// profiles — the one-screen introduction to the suite's public API.
//
//   ./quickstart [--size-factor F] [--kernels A,B] ...
#include <cstdio>
#include <exception>

#include "suite/executor.hpp"

int main(int argc, char** argv) {
  using namespace rperf;
  try {
    suite::RunParams params = suite::RunParams::parse(argc, argv);
    if (params.kernel_filter.empty()) {
      params.kernel_filter = {"Stream_TRIAD", "Basic_DAXPY",
                              "Algorithm_REDUCE_SUM"};
    }
    if (params.output_dir.empty()) params.output_dir = "quickstart_profiles";

    suite::Executor exec(params);
    exec.run();

    std::printf("Timing (seconds per repetition):\n%s\n",
                exec.timing_report().c_str());

    std::printf("Achieved bandwidth per kernel (fastest variant):\n");
    for (const auto& kernel : exec.kernels()) {
      double best = -1.0;
      for (const auto& r : exec.results()) {
        const double t = r.time_per_rep_sec;
        if (r.kernel != kernel->name() || r.tuning != 0) continue;
        if (t > 0.0 && (best < 0.0 || t < best)) best = t;
      }
      if (best > 0.0) {
        std::printf("  %-28s %8.2f GB/s  %8.2f GFLOP/s\n",
                    kernel->name().c_str(),
                    kernel->traits().bytes_total() / best / 1e9,
                    kernel->traits().flops / best / 1e9);
      }
    }

    std::string details;
    if (!exec.checksums_consistent(&details)) {
      std::printf("\nWARNING: variant checksums disagree!\n%s",
                  details.c_str());
      return 1;
    }
    std::printf("\nAll variants produced identical results.\n");

    exec.write_profiles();
    std::printf("Profiles written to %s/ (read them back with the thicket "
                "API or the bottleneck_analysis example).\n",
                params.output_dir.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 rperf::suite::RunParams::usage().c_str());
    return 2;
  }
}
