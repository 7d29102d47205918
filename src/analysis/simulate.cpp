#include "analysis/simulate.hpp"

#include "counters/ncu.hpp"
#include "counters/tma.hpp"
#include "instrument/channel.hpp"

namespace rperf::analysis {

const std::vector<MachineRunConfig>& paper_run_configs() {
  // Table III: constant 32M per node; CPU systems use 112 sequential MPI
  // ranks, GPU systems one rank per GPU/GCD.
  static const std::vector<MachineRunConfig> configs = {
      {"SPR-DDR", "RAJA_Seq", 112, kPaperProblemSize / 112},
      {"SPR-HBM", "RAJA_Seq", 112, kPaperProblemSize / 112},
      {"P9-V100", "RAJA_CUDA", 4, kPaperProblemSize / 4},
      {"EPYC-MI250X", "RAJA_HIP", 8, kPaperProblemSize / 8},
  };
  return configs;
}

std::vector<SimResult> simulate_suite(const machine::MachineModel& machine,
                                      suite::Index_type prob_size) {
  suite::RunParams params;
  params.size_override = prob_size;
  std::vector<SimResult> out;
  for (const auto& name : suite::all_kernel_names()) {
    auto kernel = suite::make_kernel(name, params);
    SimResult r;
    r.kernel = kernel->name();
    r.group = kernel->group();
    r.complexity = kernel->complexity();
    r.traits = kernel->traits();
    r.prediction = machine::predict(r.traits, machine);
    out.push_back(std::move(r));
  }
  return out;
}

cali::Profile to_profile(const std::vector<SimResult>& results,
                         const machine::MachineModel& machine) {
  cali::Channel channel;
  channel.set_metadata("machine", machine.shorthand);
  channel.set_metadata("architecture", machine.architecture);
  channel.set_metadata("simulated", "true");
  channel.set_metadata("tuning", "default");
  channel.set_metadata("problem_size",
                       static_cast<double>(kPaperProblemSize));
  for (const auto& cfg : paper_run_configs()) {
    if (cfg.machine == machine.shorthand) {
      channel.set_metadata("variant", cfg.variant);
      channel.set_metadata("nprocs", static_cast<double>(cfg.nprocs));
    }
  }

  for (const SimResult& r : results) {
    cali::ScopedRegion region(channel, r.kernel);
    channel.attribute_metric("time", r.prediction.time_sec);
    channel.attribute_metric("bytes_read", r.traits.bytes_read);
    channel.attribute_metric("bytes_written", r.traits.bytes_written);
    channel.attribute_metric("flops", r.traits.flops);
    channel.attribute_metric("read_bw", r.prediction.read_bw);
    channel.attribute_metric("write_bw", r.prediction.write_bw);
    channel.attribute_metric("flop_rate", r.prediction.flop_rate);
    channel.attribute_metric("tma_frontend_bound",
                             r.prediction.tma.frontend_bound);
    channel.attribute_metric("tma_bad_speculation",
                             r.prediction.tma.bad_speculation);
    channel.attribute_metric("tma_retiring", r.prediction.tma.retiring);
    channel.attribute_metric("tma_core_bound", r.prediction.tma.core_bound);
    channel.attribute_metric("tma_memory_bound",
                             r.prediction.tma.memory_bound);
    if (machine.is_gpu()) {
      const auto ncu = counters::simulate_ncu(r.traits, machine);
      for (const auto& [name, value] : ncu) {
        channel.attribute_metric(name, value);
      }
    }
  }
  return channel.profile();
}

bool included_in_clustering(const SimResult& r) {
  return r.complexity == suite::Complexity::N;
}

std::vector<double> tma_feature(const SimResult& r) {
  return counters::tma_tuple(r.prediction.tma);
}

}  // namespace rperf::analysis
