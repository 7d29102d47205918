// Portability study: run one kernel group in every variant at several
// problem sizes and quantify the abstraction overhead of the portability
// layer (RAJA vs Base) — the analysis motivating Section II-C of the
// paper. Everything here is real measurement on the host.
#include <cstdio>
#include <string>
#include <vector>

#include "suite/executor.hpp"

int main(int argc, char** argv) {
  using namespace rperf;
  suite::GroupID group = suite::GroupID::Stream;
  if (argc > 1) group = suite::group_from_string(argv[1]);

  std::printf("Portability study for group %s\n",
              suite::to_string(group).c_str());

  for (double size_factor : {0.05, 0.2, 0.8}) {
    suite::RunParams params;
    params.group_filter = {group};
    params.size_factor = size_factor;
    params.npasses = 3;
    params.reps_factor = 0.5;
    suite::Executor exec(params);
    exec.run();

    std::printf("\n=== size factor %.2f ===\n", size_factor);
    std::printf("%-28s %14s %14s %14s %14s\n", "Kernel", "Base_Seq(us)",
                "RAJA ovh", "Base_OMP(us)", "RAJA ovh");
    // Seconds per rep of one kernel's variant; -1 when it did not run.
    const auto per_rep = [&](const std::string& kernel, suite::VariantID v) {
      for (const auto& r : exec.results()) {
        if (r.kernel == kernel && r.variant == v) return r.time_per_rep_sec;
      }
      return -1.0;
    };
    for (const auto& kernel : exec.kernels()) {
      const double bs = per_rep(kernel->name(), suite::VariantID::Base_Seq);
      const double rs = per_rep(kernel->name(), suite::VariantID::RAJA_Seq);
      const double bo = per_rep(kernel->name(), suite::VariantID::Base_OpenMP);
      const double ro = per_rep(kernel->name(), suite::VariantID::RAJA_OpenMP);
      std::printf("%-28s %14.2f %13.1f%% %14.2f %13.1f%%\n",
                  kernel->name().c_str(), bs * 1e6,
                  bs > 0.0 ? 100.0 * (rs / bs - 1.0) : 0.0, bo * 1e6,
                  bo > 0.0 ? 100.0 * (ro / bo - 1.0) : 0.0);
    }
    std::string details;
    if (!exec.checksums_consistent(&details)) {
      std::printf("checksum mismatch!\n%s", details.c_str());
      return 1;
    }
  }
  std::printf("\n(overhead near 0%% demonstrates the zero-cost-abstraction "
              "goal of the portability layer)\n");
  return 0;
}
