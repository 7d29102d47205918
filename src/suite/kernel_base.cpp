#include "suite/kernel_base.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "faults/injector.hpp"
#include "instrument/trace_sink.hpp"
#include "mem/pool.hpp"

namespace rperf::suite {

KernelBase::KernelBase(std::string base_name, GroupID group,
                       const RunParams& params)
    : base_name_(std::move(base_name)),
      name_(to_string(group) + "_" + base_name_),
      group_(group),
      params_(params) {}

std::vector<FeatureID> KernelBase::features() const {
  std::vector<FeatureID> out;
  for (FeatureID f :
       {FeatureID::Forall, FeatureID::Kernel, FeatureID::Sort,
        FeatureID::Scan, FeatureID::Reduction, FeatureID::Atomic,
        FeatureID::View, FeatureID::Workgroup}) {
    if (has_feature(f)) out.push_back(f);
  }
  return out;
}

bool KernelBase::has_variant(VariantID v) const {
  return std::find(variants_.begin(), variants_.end(), v) != variants_.end();
}

std::vector<VariantID> KernelBase::variants() const { return variants_; }

void KernelBase::add_variant(VariantID v) {
  if (!has_variant(v)) variants_.push_back(v);
}

void KernelBase::add_all_variants() {
  for (VariantID v : all_variants()) add_variant(v);
}

ChecksumOrder KernelBase::checksum_order(VariantID v) const {
  return checksum_orders_.at(static_cast<std::size_t>(v));
}

void KernelBase::set_checksum_order(ChecksumOrder order,
                                    std::initializer_list<VariantID> variants) {
  for (VariantID v : variants) {
    checksum_orders_.at(static_cast<std::size_t>(v)) = order;
  }
}

void KernelBase::add_tuning(const std::string& name) {
  for (const auto& t : tunings_) {
    if (t == name) {
      throw std::invalid_argument(name_ + ": duplicate tuning " + name);
    }
  }
  tunings_.push_back(name);
}

void KernelBase::set_default_size(Index_type n) {
  default_size_ = n;
  finalize_sizing();
}

void KernelBase::set_default_reps(Index_type reps) {
  default_reps_ = reps;
  finalize_sizing();
}

void KernelBase::finalize_sizing() {
  // Scaled in double and bounded before converting: a product beyond
  // Index_type has no integer value to round to.
  if (params_.size_override.has_value()) {
    actual_size_ = *params_.size_override;
  } else {
    const double size = std::round(static_cast<double>(default_size_) *
                                   params_.size_factor);
    if (!(size < 0x1p63)) {
      char factor[32];
      std::snprintf(factor, sizeof factor, "%g", params_.size_factor);
      throw std::invalid_argument(name_ + ": --size-factor " + factor +
                                  " gives a problem size beyond the index "
                                  "range");
    }
    actual_size_ = static_cast<Index_type>(size);
  }
  actual_size_ = std::max<Index_type>(1, actual_size_);

  const double reps =
      std::round(static_cast<double>(default_reps_) * params_.reps_factor);
  reps_ = static_cast<Index_type>(
      std::clamp(reps, static_cast<double>(params_.min_reps),
                 static_cast<double>(params_.max_reps)));
  sized_ = true;
}

KernelBase::Measurement KernelBase::execute(VariantID vid, std::size_t tuning,
                                            cali::Channel& channel) {
  if (!has_variant(vid)) {
    throw std::invalid_argument(name_ + ": variant " + to_string(vid) +
                                " not available");
  }
  if (tuning >= tunings_.size()) {
    throw std::invalid_argument(name_ + ": no tuning index " +
                                std::to_string(tuning));
  }
  if (!sized_) finalize_sizing();
  tuning_ = tuning;

  using Clock = std::chrono::steady_clock;
  Measurement m;
  const mem::PoolStats pool_before = mem::pool().stats();

  // Per-thread span stats accumulate on the process-wide sink keyed by the
  // kernel's region name; deltas across this execute() give this cell's
  // load-imbalance contribution.
  cali::TraceSink& sink = cali::TraceSink::instance();
  const bool tracing = sink.enabled();
  const std::uint32_t trace_name = tracing ? sink.intern(name_) : 0;
  const cali::RegionThreadStats tspans_before =
      tracing ? sink.instance_stats(trace_name) : cali::RegionThreadStats{};

  faults::ScopedCell cell(name_);
  faults::injector().on_lifecycle(name_);
  const auto budget_start = Clock::now();

  for (int pass = 0; pass < std::max(1, params_.npasses); ++pass) {
    const int injected_delay = faults::injector().slow_delay_ms(name_);
    if (injected_delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(injected_delay));
    }
    // Guarded lifecycle: if any stage throws, attempt tearDown so a failed
    // cell releases its data and cannot poison subsequent cells.
    try {
      {
        const auto setup_start = Clock::now();
        setUp(vid);
        m.setup_sec +=
            std::chrono::duration<double>(Clock::now() - setup_start).count();
      }
      {
        cali::ScopedRegion region(channel, name_);
        const auto start = Clock::now();
        runVariant(vid);
        const auto stop = Clock::now();
        const double elapsed =
            std::chrono::duration<double>(stop - start).count();
        const double per_rep = elapsed / static_cast<double>(reps_);
        if (m.time_per_rep_sec < 0.0 || per_rep < m.time_per_rep_sec) {
          m.time_per_rep_sec = per_rep;
        }

        // Attribute the paper's analytic metrics to the kernel region.
        const auto& t = traits_;
        channel.attribute_metric("reps", static_cast<double>(reps_));
        channel.attribute_metric("bytes_read",
                                 t.bytes_read * static_cast<double>(reps_));
        channel.attribute_metric(
            "bytes_written", t.bytes_written * static_cast<double>(reps_));
        channel.attribute_metric("flops",
                                 t.flops * static_cast<double>(reps_));
        channel.attribute_metric("problem_size",
                                 static_cast<double>(actual_size_));
      }
      const auto csum_start = Clock::now();
      long double pass_csum = computeChecksum(vid);
      m.checksum_sec +=
          std::chrono::duration<double>(Clock::now() - csum_start).count();
      pass_csum = faults::injector().corrupt_checksum(name_, pass_csum);
      // A pass that is not finite decides the cell: a later clean pass
      // must not overwrite it.
      if (std::isfinite(static_cast<double>(m.checksum))) {
        m.checksum = pass_csum;
      }
    } catch (...) {
      try {
        tearDown(vid);
      } catch (...) {
        // The original exception carries the diagnosis.
      }
      throw;
    }
    tearDown(vid);

    // Watchdog: enforce the per-kernel wall-clock budget between passes.
    if (params_.max_kernel_seconds > 0.0) {
      const double spent =
          std::chrono::duration<double>(Clock::now() - budget_start).count();
      if (spent > params_.max_kernel_seconds) {
        throw KernelTimeout(name_ + ": exceeded budget of " +
                            std::to_string(params_.max_kernel_seconds) +
                            " s (spent " + std::to_string(spent) + " s)");
      }
    }
  }

  m.pool_hits = mem::pool().stats().reuse_hits - pool_before.reuse_hits;

  // Setup-cost observability: setup/checksum time sits outside the kernel
  // region's inclusive_time_sec, so recording it as region metrics never
  // perturbs the measured kernel time. attribute_metric_at leaves the
  // region's visit_count untouched.
  channel.attribute_metric_at(name_, "setup_ms", m.setup_sec * 1e3);
  channel.attribute_metric_at(name_, "checksum_ms", m.checksum_sec * 1e3);
  channel.attribute_metric_at(name_, "pool_hit",
                              static_cast<double>(m.pool_hits));

  // Load-imbalance metrics from the traced OpenMP path. Max/mean thread
  // times are sums over parallel instances, so they stay meaningful when
  // channels merge; the imbalance ratio is their quotient for this cell.
  if (tracing && sink.enabled()) {
    const cali::RegionThreadStats after = sink.instance_stats(trace_name);
    const double d_max = after.sum_max_sec - tspans_before.sum_max_sec;
    const double d_mean = after.sum_mean_sec - tspans_before.sum_mean_sec;
    if (after.instances > tspans_before.instances && d_mean > 0.0) {
      channel.attribute_metric_at(name_, "tspan_max_ms", d_max * 1e3);
      channel.attribute_metric_at(name_, "tspan_mean_ms", d_mean * 1e3);
      channel.attribute_metric_at(name_, "load_imbalance", d_max / d_mean);
    }
  }

  return m;
}

}  // namespace rperf::suite
