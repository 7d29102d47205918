#include "instrument/hwc.hpp"

#include <chrono>

namespace rperf::hwc {

namespace {
using Clock = std::chrono::steady_clock;
}

RegionCounterService::~RegionCounterService() {
  if (attached_ != nullptr) {
    attached_->remove_event_hook(hook_id_);
    attached_ = nullptr;
  }
}

bool RegionCounterService::attach(cali::Channel& channel) {
  if (attached_ != nullptr) {
    throw cali::AnnotationError(
        "RegionCounterService::attach: service is already attached to a "
        "channel; detach it first");
  }
  const Probe& p = cached_probe();
  if (!p.available) {
    reason_ = p.reason;
    return false;
  }
  const auto t0 = Clock::now();
  std::string err;
  const bool opened = group_.open(&err);
  sample_.overhead_sec += std::chrono::duration<double>(Clock::now() - t0)
                              .count();
  if (!opened) {
    reason_ = err;
    return false;
  }
  reason_.clear();
  stack_.clear();
  hook_id_ = channel.add_event_hook(
      [this](const std::string& region, bool is_begin, double) {
        on_event(region, is_begin);
      });
  attached_ = &channel;
  return true;
}

void RegionCounterService::detach(cali::Channel& channel) {
  if (attached_ == nullptr) return;  // detaching an unattached service
  if (attached_ != &channel) {
    throw cali::AnnotationError(
        "RegionCounterService::detach: service is attached to a different "
        "channel");
  }
  channel.remove_event_hook(hook_id_);
  attached_ = nullptr;
  hook_id_ = 0;
  group_.close();
  stack_.clear();
}

void RegionCounterService::on_event(const std::string& region,
                                    bool is_begin) {
  if (!group_.opened()) return;  // a failed read latched the group closed
  const auto t0 = Clock::now();
  if (is_begin) {
    PerfEventGroup::Reading r;
    if (group_.read(&r)) {
      stack_.push_back(std::move(r));
    } else {
      // Fail open mid-flight: stop observing, keep the channel intact.
      reason_ = "perf group read failed; counters disabled mid-run";
      stack_.clear();
    }
  } else if (!stack_.empty()) {
    PerfEventGroup::Reading end;
    if (!group_.read(&end)) {
      reason_ = "perf group read failed; counters disabled mid-run";
      stack_.clear();
    } else {
      const PerfEventGroup::Reading begin = std::move(stack_.back());
      stack_.pop_back();
      // Only the outermost region attributes: inclusive semantics, and
      // attribute_metric_at targets top-level regions (which the closed
      // outermost region is).
      if (stack_.empty()) {
        const std::uint64_t d_enabled =
            end.time_enabled_ns - begin.time_enabled_ns;
        const std::uint64_t d_running =
            end.time_running_ns - begin.time_running_ns;
        const auto& names = group_.names();
        for (std::size_t i = 0;
             i < names.size() && i < end.values.size() &&
             i < begin.values.size();
             ++i) {
          const double scaled = scale_multiplexed(
              end.values[i] - begin.values[i], d_enabled, d_running);
          attached_->attribute_metric_at(region, names[i], scaled);
          sample_.values[names[i]] += scaled;
        }
        sample_.time_enabled_ns += d_enabled;
        sample_.time_running_ns += d_running;
        sample_.source = "measured";
        ++regions_;
      }
    }
  }
  sample_.overhead_sec +=
      std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace rperf::hwc
