// Region-annotation channel — the Caliper substitute.
//
// A `Channel` records a tree of nested annotated regions. Entering the same
// region path twice accumulates (time and visit count), so repeated kernel
// executions fold into one node, as Caliper's aggregation service does.
// Arbitrary named metrics (e.g. the suite's analytic metrics: bytes read,
// bytes written, FLOPs) can be attributed to the currently open region.
// Run-level metadata (the Adiak substitute) records variant, tuning,
// machine, problem size, etc.
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
//   write_profile(ch, "triad.cali.json");
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rperf::cali {

/// One node of the region tree.
struct RegionNode {
  std::string name;
  RegionNode* parent = nullptr;
  std::vector<std::unique_ptr<RegionNode>> children;

  double inclusive_time_sec = 0.0;  ///< summed wall time across visits
  std::uint64_t visit_count = 0;    ///< number of begin/end pairs
  std::map<std::string, double> metrics;  ///< attributed metrics (summed)

  /// Find or create a child with the given name.
  RegionNode& child(const std::string& child_name);
  /// Find a child; nullptr when absent.
  [[nodiscard]] const RegionNode* find(const std::string& child_name) const;
  /// Slash-joined path from the root (root itself is "").
  [[nodiscard]] std::string path() const;
};

class AnnotationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Channel {
 public:
  Channel();

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

  [[nodiscard]] const RegionNode& root() const { return *root_; }
  /// Mutable root, for deserializers that rebuild a recorded tree
  /// (e.g. channel_from_profile). Not for live annotation — use begin/end.
  [[nodiscard]] RegionNode& root_rw() { return *root_; }
  [[nodiscard]] const std::map<std::string, std::string>& metadata() const {
    return metadata_;
  }
  [[nodiscard]] int open_depth() const {
    return static_cast<int>(stack_.size()) - 1;
  }

  /// Total time attributed to top-level regions.
  [[nodiscard]] double total_time_sec() const;

  /// Drop all recorded regions and metadata.
  void clear();

  /// Fold another channel's recorded regions into this one: matching
  /// region paths sum their time, visit counts, and metrics; new paths are
  /// adopted; `other`'s metadata overwrites same-keyed entries here. Both
  /// channels must have no open regions. Used by the executor to commit a
  /// per-cell scratch channel into the per-variant profile only after the
  /// cell passes.
  void merge(const Channel& other);

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

  struct HookEntry {
    int id = 0;
    EventHook fn;
  };

  void notify_hooks(const std::string& region, bool is_begin,
                    Clock::time_point now) const;

  std::unique_ptr<RegionNode> root_;
  std::vector<RegionNode*> stack_;       // innermost last; stack_[0] == root
  std::vector<Clock::time_point> times_; // begin timestamps, parallel to stack_
  std::map<std::string, std::string> metadata_;
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
