// In-memory span recorder for rperf_bench's traced run.
//
// The benchmark measures the program from outside: a span brackets one
// call into a public entry point (Executor construction, run(), a codec
// call, a store call, one replayed KernelBase::execute). Spans stay in
// memory while the workload runs and are written once, as Chrome trace
// JSON, when the benchmark ends. Each span records its name, start, end,
// the span that was open when it began (its parent) and the workload it
// belongs to.
//
// A layer's self time is a span's duration minus the time its child spans
// cover; children never overlap (the benchmark is single-threaded), so
// that is the duration minus the children's summed durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "instrument/json.hpp"

namespace rperf::bench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::uint32_t name = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double t0 = 0.0;  ///< seconds since the recorder's epoch
    double t1 = 0.0;
  };

  explicit SpanRecorder(int workload) : workload_(workload) {}

  /// Open a span as a child of the innermost open span; returns its id.
  int begin(const std::string& name) {
    const int id = add(name, now(), 0.0, open_.empty() ? -1 : open_.back());
    open_.push_back(id);
    return id;
  }

  /// Close span `id`, which must be the innermost open one.
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Record an already finished interval (e.g. one observed through a
  /// channel event hook) as a child of `parent`.
  int record(const std::string& name, double t0, double t1, int parent) {
    return add(name, t0, t1, parent);
  }

  /// Seconds since the recorder's epoch, on the clock spans use.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    const auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    for (const Span& s : spans_) {
      if (s.name == it->second) out.push_back(s.t1 - s.t0);
    }
    return out;
  }

  /// Summed self time of every span named `name`: each one's duration
  /// minus the durations of its children.
  [[nodiscard]] double total_self(const std::string& name) const {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0.0;
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == it->second) sum += s.t1 - s.t0;
      if (s.parent >= 0 &&
          spans_[static_cast<std::size_t>(s.parent)].name == it->second) {
        sum -= s.t1 - s.t0;
      }
    }
    return sum;
  }

  /// Chrome trace events ("X" complete events, microseconds) for this
  /// recorder; pid is the workload id, args carry the parent index.
  [[nodiscard]] json::Array chrome_events() const {
    json::Array events;
    events.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Object e;
      e["name"] = names_[s.name];
      e["ph"] = "X";
      e["ts"] = s.t0 * 1e6;
      e["dur"] = (s.t1 - s.t0) * 1e6;
      e["pid"] = workload_;
      e["tid"] = 0;
      json::Object args;
      args["id"] = static_cast<std::int64_t>(i);
      args["parent"] = s.parent;
      e["args"] = std::move(args);
      events.emplace_back(std::move(e));
    }
    return events;
  }

 private:
  int add(const std::string& name, double t0, double t1, int parent) {
    auto [it, inserted] =
        ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    spans_.push_back(Span{it->second, parent, t0, t1});
    return static_cast<int>(spans_.size() - 1);
  }

  int workload_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

/// RAII span on an optional recorder: a null recorder (the untraced run)
/// costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec ? rec->begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace rperf::bench
