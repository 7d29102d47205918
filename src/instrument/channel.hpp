// Region-annotation channel — the Caliper substitute.
//
// A `Channel` records nested annotated regions into the `Profile` it owns
// (profile.hpp). Entering the same region path twice accumulates (time
// and visit count), so repeated kernel executions fold into one node, as
// Caliper's aggregation service does. Arbitrary named metrics (e.g. the
// suite's analytic metrics: bytes read, bytes written, FLOPs) can be
// attributed to the currently open region. Run-level metadata (the Adiak
// substitute) records variant, tuning, machine, problem size, etc.
//
// Typical use, mirroring the paper's integration:
//
//   Channel ch;
//   ch.set_metadata("variant", "RAJA_OpenMP");
//   {
//     ScopedRegion r(ch, "Stream_TRIAD");
//     run_kernel();
//     ch.attribute_metric("flops", 2.0 * n);
//   }
//   write_profile(ch.profile(), "triad.cali.json");
#pragma once

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "instrument/profile.hpp"

namespace rperf::cali {

class AnnotationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Channel {
 public:
  /// Open a nested region. Regions must be strictly nested.
  void begin(const std::string& region);
  /// Close the innermost region; `region` must match the open one.
  void end(const std::string& region);

  /// Add `value` to metric `name` on the innermost open region.
  void attribute_metric(const std::string& name, double value);

  /// Add `value` to metric `name` on top-level region `region`, creating it
  /// if needed, without opening it (visit_count is untouched). Lets callers
  /// attribute costs measured after a region closed — e.g. the checksum
  /// pass that validates a kernel region's output.
  void attribute_metric_at(const std::string& region, const std::string& name,
                           double value);

  /// Record run-level metadata (Adiak substitute).
  void set_metadata(const std::string& key, const std::string& value);
  void set_metadata(const std::string& key, double value);

  /// The regions and metadata recorded so far. Open regions are in the
  /// tree but not yet timed or counted.
  [[nodiscard]] const Profile& profile() const { return profile_; }
  [[nodiscard]] int open_depth() const {
    return static_cast<int>(open_.size());
  }

  /// Observer invoked on every begin (is_begin=true) and end event with
  /// the region name and seconds since channel creation. Used by the
  /// region counter service (hwc::RegionCounterService). Multiple
  /// observers may be registered; they are invoked in registration order,
  /// so independent observers can watch one channel without clobbering
  /// each other's begin/end pairing.
  using EventHook =
      std::function<void(const std::string& region, bool is_begin,
                         double elapsed_sec)>;
  /// Register an observer; returns a handle for remove_event_hook.
  /// Throws AnnotationError for a null hook.
  int add_event_hook(EventHook hook);
  /// Remove a previously registered observer; unknown handles are ignored.
  void remove_event_hook(int id);
  [[nodiscard]] std::size_t event_hook_count() const { return hooks_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct OpenRegion {
    std::size_t child = 0;  ///< index among its parent's children
    Clock::time_point start;
  };
  struct HookEntry {
    int id = 0;
    EventHook fn;
  };

  /// The innermost open region; open_ must not be empty.
  ProfileNode& innermost();
  void notify_hooks(const std::string& region, bool is_begin,
                    Clock::time_point now) const;

  Profile profile_;
  /// Open regions, outermost first, as a path of child indices: pointers
  /// would dangle when attribute_metric_at grows profile_.roots while a
  /// region is open.
  std::vector<OpenRegion> open_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<HookEntry> hooks_;
  int next_hook_id_ = 1;
};

/// RAII region guard.
class ScopedRegion {
 public:
  ScopedRegion(Channel& channel, std::string name)
      : channel_(channel), name_(std::move(name)) {
    channel_.begin(name_);
  }
  ~ScopedRegion() { channel_.end(name_); }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  Channel& channel_;
  std::string name_;
};

}  // namespace rperf::cali
