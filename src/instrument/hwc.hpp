// Region counter service — the Caliper papi-service substitute, measured.
//
// Attaches to a Channel as one of its event-hook observers
// (Channel::add_event_hook) and reads a per-thread perf event group at
// every region begin and end. At the end of each OUTERMOST region the raw deltas are scaled for
// multiplexing (time_enabled / time_running) and attributed to the region
// as metrics under the PAPI preset names, so profiles carry measured
// counters through exactly the plumbing the simulator uses.
//
// Attribution is inclusive and top-level only: kernel regions in the
// suite's scratch channels are top-level, and attribute_metric_at targets
// top-level regions. Nested begins/ends inside an open outer region are
// observed (the stack keeps pairing intact) but only the outer region
// receives metrics, mirroring inclusive_time_sec semantics.
//
// Fail-open contract: when perf events are unavailable (probe fails, the
// group cannot open) attach() leaves the service inactive and returns
// false — the channel keeps working untouched, reason() says why, and the
// caller is expected to fall back to the simulator. Attaching an
// already-attached service throws AnnotationError instead of silently
// registering a second hook.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "counters/perf_event.hpp"
#include "instrument/channel.hpp"

namespace rperf::hwc {

class RegionCounterService {
 public:
  RegionCounterService() = default;
  /// Detaches (if attached) and closes the event group.
  ~RegionCounterService();
  RegionCounterService(const RegionCounterService&) = delete;
  RegionCounterService& operator=(const RegionCounterService&) = delete;

  /// Open the per-thread event group and start observing `channel`.
  /// Returns true when counters are live; false (fail-open, channel
  /// untouched) when perf events are unavailable — reason() explains.
  /// Throws AnnotationError when this service is already attached.
  bool attach(cali::Channel& channel);
  /// Stop observing (removes only this service's hook). Detaching an
  /// unattached service is a no-op; detaching from the wrong channel
  /// throws AnnotationError.
  void detach(cali::Channel& channel);

  [[nodiscard]] bool attached() const { return attached_ != nullptr; }
  /// True when attached with an open, readable event group.
  [[nodiscard]] bool active() const { return attached() && group_.opened(); }
  /// Why attach() declined ("" while active).
  [[nodiscard]] const std::string& reason() const { return reason_; }

  /// Accumulated observation across all completed outermost regions since
  /// attach: multiplex-scaled totals under PAPI names, enabled/running
  /// window, and the service's own overhead. source == "measured" once at
  /// least one region completed.
  [[nodiscard]] const Sample& sample() const { return sample_; }
  /// Outermost regions completed under observation.
  [[nodiscard]] std::uint64_t regions_observed() const { return regions_; }

 private:
  void on_event(const std::string& region, bool is_begin);

  PerfEventGroup group_;
  cali::Channel* attached_ = nullptr;
  int hook_id_ = 0;
  std::string reason_;
  Sample sample_;
  std::uint64_t regions_ = 0;
  /// Begin-time snapshots, innermost last (only depth 0 attributes).
  std::vector<PerfEventGroup::Reading> stack_;
};

}  // namespace rperf::hwc
