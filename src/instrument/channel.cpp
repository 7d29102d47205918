#include "instrument/channel.hpp"

#include "instrument/trace_sink.hpp"

namespace rperf::cali {

ProfileNode& Channel::innermost() {
  ProfileNode* node = &profile_.roots[open_.front().child];
  for (std::size_t d = 1; d < open_.size(); ++d) {
    node = &node->children[open_[d].child];
  }
  return *node;
}

void Channel::begin(const std::string& region) {
  if (region.empty()) throw AnnotationError("begin: empty region name");
  std::vector<ProfileNode>& siblings =
      open_.empty() ? profile_.roots : innermost().children;
  const std::size_t child = child_index(siblings, region);
  const auto now = Clock::now();
  open_.push_back(OpenRegion{child, now});
  if (TraceSink& sink = TraceSink::instance(); sink.enabled()) {
    sink.begin(sink.intern(region));
  }
  notify_hooks(region, /*is_begin=*/true, now);
}

void Channel::end(const std::string& region) {
  if (open_.empty()) {
    throw AnnotationError("end('" + region + "') with no open region");
  }
  ProfileNode& node = innermost();
  if (node.name != region) {
    throw AnnotationError("mismatched end: open region is '" + node.name +
                          "', got '" + region + "'");
  }
  const auto now = Clock::now();
  node.time_sec +=
      std::chrono::duration<double>(now - open_.back().start).count();
  node.visit_count += 1;
  open_.pop_back();
  if (TraceSink& sink = TraceSink::instance(); sink.enabled()) {
    sink.end();
  }
  notify_hooks(region, /*is_begin=*/false, now);
}

void Channel::notify_hooks(const std::string& region, bool is_begin,
                           Clock::time_point now) const {
  if (hooks_.empty()) return;
  const double elapsed =
      std::chrono::duration<double>(now - epoch_).count();
  for (const HookEntry& h : hooks_) h.fn(region, is_begin, elapsed);
}

int Channel::add_event_hook(EventHook hook) {
  if (!hook) throw AnnotationError("add_event_hook: null hook");
  const int id = next_hook_id_++;
  hooks_.push_back(HookEntry{id, std::move(hook)});
  return id;
}

void Channel::remove_event_hook(int id) {
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->id == id) {
      hooks_.erase(it);
      return;
    }
  }
}

void Channel::attribute_metric(const std::string& name, double value) {
  if (open_.empty()) {
    throw AnnotationError("attribute_metric('" + name +
                          "') with no open region");
  }
  innermost().metrics[name] += value;
}

void Channel::attribute_metric_at(const std::string& region,
                                  const std::string& name, double value) {
  if (region.empty()) {
    throw AnnotationError("attribute_metric_at: empty region name");
  }
  profile_.roots[child_index(profile_.roots, region)].metrics[name] += value;
}

void Channel::set_metadata(const std::string& key, const std::string& value) {
  profile_.metadata[key] = value;
}

void Channel::set_metadata(const std::string& key, double value) {
  profile_.metadata[key] = metadata_text(value);
}

}  // namespace rperf::cali
