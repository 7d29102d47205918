#include "instrument/channel.hpp"

#include <sstream>

#include "instrument/trace_sink.hpp"

namespace rperf::cali {

RegionNode& RegionNode::child(const std::string& child_name) {
  for (auto& c : children) {
    if (c->name == child_name) return *c;
  }
  auto node = std::make_unique<RegionNode>();
  node->name = child_name;
  node->parent = this;
  children.push_back(std::move(node));
  return *children.back();
}

const RegionNode* RegionNode::find(const std::string& child_name) const {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

std::string RegionNode::path() const {
  if (parent == nullptr) return "";
  std::string prefix = parent->path();
  return prefix.empty() ? name : prefix + "/" + name;
}

Channel::Channel() : root_(std::make_unique<RegionNode>()) {
  stack_.push_back(root_.get());
  times_.push_back(Clock::now());
}

void Channel::begin(const std::string& region) {
  if (region.empty()) throw AnnotationError("begin: empty region name");
  RegionNode& node = stack_.back()->child(region);
  stack_.push_back(&node);
  const auto now = Clock::now();
  times_.push_back(now);
  if (TraceSink& sink = TraceSink::instance(); sink.enabled()) {
    sink.begin(sink.intern(region));
  }
  notify_hooks(region, /*is_begin=*/true, now);
}

void Channel::end(const std::string& region) {
  if (stack_.size() <= 1) {
    throw AnnotationError("end('" + region + "') with no open region");
  }
  RegionNode* node = stack_.back();
  if (node->name != region) {
    throw AnnotationError("mismatched end: open region is '" + node->name +
                          "', got '" + region + "'");
  }
  const auto now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - times_.back()).count();
  node->inclusive_time_sec += elapsed;
  node->visit_count += 1;
  stack_.pop_back();
  times_.pop_back();
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
  if (stack_.size() <= 1) {
    throw AnnotationError("attribute_metric('" + name +
                          "') with no open region");
  }
  stack_.back()->metrics[name] += value;
}

void Channel::attribute_metric_at(const std::string& region,
                                  const std::string& name, double value) {
  if (region.empty()) {
    throw AnnotationError("attribute_metric_at: empty region name");
  }
  root_->child(region).metrics[name] += value;
}

void Channel::set_metadata(const std::string& key, const std::string& value) {
  metadata_[key] = value;
}

void Channel::set_metadata(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  metadata_[key] = os.str();
}

double Channel::total_time_sec() const {
  double total = 0.0;
  for (const auto& c : root_->children) total += c->inclusive_time_sec;
  return total;
}

void Channel::clear() {
  if (stack_.size() > 1) {
    throw AnnotationError("clear() while regions are open");
  }
  root_ = std::make_unique<RegionNode>();
  stack_.clear();
  times_.clear();
  stack_.push_back(root_.get());
  times_.push_back(Clock::now());
  metadata_.clear();
}

namespace {

void merge_node(RegionNode& dst, const RegionNode& src) {
  dst.inclusive_time_sec += src.inclusive_time_sec;
  dst.visit_count += src.visit_count;
  for (const auto& [name, value] : src.metrics) dst.metrics[name] += value;
  for (const auto& child : src.children) {
    merge_node(dst.child(child->name), *child);
  }
}

}  // namespace

void Channel::merge(const Channel& other) {
  if (open_depth() > 0 || other.open_depth() > 0) {
    throw AnnotationError("merge() while regions are open");
  }
  merge_node(*root_, other.root());
  for (const auto& [key, value] : other.metadata()) metadata_[key] = value;
}

}  // namespace rperf::cali
