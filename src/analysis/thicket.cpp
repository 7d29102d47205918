#include "analysis/thicket.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <set>
#include <sstream>
#include <stdexcept>

namespace rperf::thicket {

Thicket Thicket::from_profiles(std::vector<cali::Profile> profiles) {
  Thicket t;
  t.profiles_ = std::move(profiles);
  t.index_nodes();
  return t;
}

Thicket Thicket::from_directory(const std::string& dir) {
  std::vector<cali::Profile> profiles;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().string().ends_with(".cali.json")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) profiles.push_back(cali::read_profile(p));
  return from_profiles(std::move(profiles));
}

Thicket Thicket::concat(const std::vector<Thicket>& parts) {
  std::vector<cali::Profile> all;
  for (const Thicket& t : parts) {
    all.insert(all.end(), t.profiles_.begin(), t.profiles_.end());
  }
  return from_profiles(std::move(all));
}

void Thicket::index_nodes() {
  nodes_.clear();
  std::set<std::string> seen;
  for (const auto& prof : profiles_) {
    prof.for_each([&](const std::string& path, const cali::ProfileNode&) {
      if (seen.insert(path).second) nodes_.push_back(path);
    });
  }
}

const std::map<std::string, std::string>& Thicket::metadata(
    std::size_t profile) const {
  return profiles_.at(profile).metadata;
}

std::optional<double> Thicket::value(const std::string& node,
                                     std::size_t profile,
                                     const std::string& metric) const {
  const cali::ProfileNode* n = profiles_.at(profile).find(node);
  if (n == nullptr) return std::nullopt;
  // Explicitly attributed metrics win (simulated profiles attribute a
  // modeled "time"); the region's own timing fields are the fallback.
  auto it = n->metrics.find(metric);
  if (it != n->metrics.end()) return it->second;
  if (metric == "time") return n->time_sec;
  if (metric == "count") return static_cast<double>(n->visit_count);
  return std::nullopt;
}

std::vector<std::string> Thicket::metrics() const {
  std::set<std::string> names{"time", "count"};
  for (const auto& prof : profiles_) {
    prof.for_each([&](const std::string&, const cali::ProfileNode& n) {
      for (const auto& [k, v] : n.metrics) names.insert(k);
    });
  }
  return {names.begin(), names.end()};
}

std::map<std::string, Thicket> Thicket::groupby(
    const std::string& meta_key) const {
  std::map<std::string, std::vector<cali::Profile>> buckets;
  for (const auto& prof : profiles_) {
    auto it = prof.metadata.find(meta_key);
    if (it == prof.metadata.end()) continue;
    buckets[it->second].push_back(prof);
  }
  std::map<std::string, Thicket> out;
  for (auto& [key, profs] : buckets) {
    out.emplace(key, from_profiles(std::move(profs)));
  }
  return out;
}

Thicket Thicket::filter_profiles(
    const std::function<bool(const std::map<std::string, std::string>&)>&
        pred) const {
  std::vector<cali::Profile> kept;
  for (const auto& prof : profiles_) {
    if (pred(prof.metadata)) kept.push_back(prof);
  }
  return from_profiles(std::move(kept));
}

Thicket Thicket::filter_nodes(
    const std::function<bool(const std::string&)>& pred) const {
  // Nodes live inside profile trees; filtering keeps matching roots and
  // their subtrees (the suite produces flat, one-level trees).
  std::vector<cali::Profile> out;
  for (const auto& prof : profiles_) {
    cali::Profile filtered;
    filtered.metadata = prof.metadata;
    for (const auto& root : prof.roots) {
      if (pred(root.name)) filtered.roots.push_back(root);
    }
    out.push_back(std::move(filtered));
  }
  return from_profiles(std::move(out));
}

Thicket Thicket::top(const std::string& metric, std::size_t n) const {
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& node : nodes_) {
    const Statistics s = stats(node, metric);
    if (s.count > 0) ranked.emplace_back(s.mean, node);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  if (ranked.size() > n) ranked.resize(n);
  Thicket out = *this;
  out.nodes_.clear();
  for (auto& [mean, node] : ranked) out.nodes_.push_back(std::move(node));
  return out;
}

Statistics Thicket::stats(const std::string& node,
                          const std::string& metric) const {
  std::vector<double> values;
  for (std::size_t p = 0; p < profiles_.size(); ++p) {
    if (auto v = value(node, p, metric)) values.push_back(*v);
  }
  Statistics s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  const std::size_t mid = values.size() / 2;
  s.median = values.size() % 2 == 1
                 ? values[mid]
                 : 0.5 * (values[mid - 1] + values[mid]);
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(var / static_cast<double>(values.size() - 1))
                 : 0.0;
  return s;
}

std::string Thicket::table(const std::string& metric,
                           const std::string& label_key) const {
  std::ostringstream os;
  os << std::left << std::setw(34) << "node";
  // A column is 16 wide, or wider so its label keeps a leading space.
  std::vector<int> widths;
  for (std::size_t p = 0; p < profiles_.size(); ++p) {
    auto it = profiles_[p].metadata.find(label_key);
    const std::string label = it == profiles_[p].metadata.end()
                                  ? "run" + std::to_string(p)
                                  : it->second;
    widths.push_back(std::max(16, static_cast<int>(label.size()) + 1));
    os << std::right << std::setw(widths[p]) << label;
  }
  os << '\n';
  for (const auto& node : nodes_) {
    os << std::left << std::setw(34) << node;
    for (std::size_t p = 0; p < profiles_.size(); ++p) {
      if (auto v = value(node, p, metric)) {
        os << std::right << std::setw(widths[p]) << std::scientific
           << std::setprecision(3) << *v;
      } else {
        os << std::right << std::setw(widths[p]) << "--";
      }
    }
    os << '\n';
  }
  return os.str();
}

namespace {

void derive_node(cali::ProfileNode& node,
                 const std::string& name,
                 const std::function<std::optional<double>(
                     const std::map<std::string, double>&)>& fn) {
  std::map<std::string, double> view = node.metrics;
  view.emplace("time", node.time_sec);
  view.emplace("count", static_cast<double>(node.visit_count));
  if (auto v = fn(view)) node.metrics[name] = *v;
  for (auto& c : node.children) derive_node(c, name, fn);
}

}  // namespace

Thicket Thicket::derive(
    const std::string& name,
    const std::function<std::optional<double>(
        const std::map<std::string, double>&)>& fn) const {
  std::vector<cali::Profile> out = profiles_;
  for (auto& prof : out) {
    for (auto& root : prof.roots) derive_node(root, name, fn);
  }
  return from_profiles(std::move(out));
}

std::string Thicket::to_csv(
    const std::vector<std::string>& metric_names,
    const std::vector<std::string>& metadata_keys) const {
  std::ostringstream os;
  os << "node";
  for (const auto& k : metadata_keys) os << ',' << k;
  for (const auto& m : metric_names) os << ',' << m;
  os << '\n';
  for (const auto& node : nodes_) {
    for (std::size_t p = 0; p < profiles_.size(); ++p) {
      if (profiles_[p].find(node) == nullptr) continue;
      os << node;
      for (const auto& k : metadata_keys) {
        auto it = profiles_[p].metadata.find(k);
        os << ',' << (it == profiles_[p].metadata.end() ? "" : it->second);
      }
      for (const auto& m : metric_names) {
        os << ',';
        if (auto v = value(node, p, m)) {
          os << std::setprecision(12) << *v;
        }
      }
      os << '\n';
    }
  }
  return os.str();
}

namespace {

void render_tree(const cali::ProfileNode& node, int depth,
                 const std::string& metric, std::ostringstream& os) {
  os << std::string(static_cast<std::size_t>(depth) * 2, ' ');
  double value = node.time_sec;
  if (metric != "time") {
    auto it = node.metrics.find(metric);
    value = it == node.metrics.end() ? 0.0 : it->second;
  } else if (auto it = node.metrics.find("time"); it != node.metrics.end()) {
    value = it->second;
  }
  os << std::setprecision(6) << value << "  " << node.name << '\n';
  for (const auto& c : node.children) {
    render_tree(c, depth + 1, metric, os);
  }
}

}  // namespace

std::string Thicket::tree(std::size_t profile,
                          const std::string& metric) const {
  const cali::Profile& prof = profiles_.at(profile);
  std::ostringstream os;
  for (const auto& root : prof.roots) render_tree(root, 0, metric, os);
  return os.str();
}

std::vector<CompareRow> compare(const Thicket& baseline,
                                const Thicket& candidate,
                                const std::string& metric) {
  std::vector<CompareRow> rows;
  for (const auto& node : baseline.nodes()) {
    const auto b = baseline.stats(node, metric);
    const auto c = candidate.stats(node, metric);
    if (b.count == 0 || c.count == 0 || b.mean == 0.0) continue;
    CompareRow row;
    row.node = node;
    row.baseline = b.mean;
    row.candidate = c.mean;
    row.ratio = c.mean / b.mean;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<CompareRow> outliers(const std::vector<CompareRow>& rows,
                                 double threshold) {
  if (threshold < 1.0) throw std::invalid_argument("threshold must be >= 1");
  std::vector<CompareRow> out;
  for (const auto& r : rows) {
    if (r.ratio > threshold || r.ratio < 1.0 / threshold) out.push_back(r);
  }
  return out;
}

std::string render_comparison(const std::vector<CompareRow>& rows) {
  std::ostringstream os;
  os << std::left << std::setw(34) << "node" << std::right << std::setw(16)
     << "baseline" << std::setw(16) << "candidate" << std::setw(10)
     << "ratio" << '\n';
  for (const auto& r : rows) {
    os << std::left << std::setw(34) << r.node << std::right
       << std::setw(16) << std::scientific << std::setprecision(3)
       << r.baseline << std::setw(16) << r.candidate << std::setw(10)
       << std::fixed << std::setprecision(3) << r.ratio << '\n';
  }
  return os.str();
}

}  // namespace rperf::thicket
