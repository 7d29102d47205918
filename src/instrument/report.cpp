#include "instrument/report.hpp"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

namespace rperf::cali {

namespace {

double exclusive_time(const ProfileNode& node) {
  double child_total = 0.0;
  for (const auto& c : node.children) child_total += c.time_sec;
  return std::max(0.0, node.time_sec - child_total);
}

void render(const ProfileNode& node, int depth, double total,
            const ReportOptions& opts,
            const std::vector<std::string>& metric_names,
            std::ostringstream& os) {
  const double share = total > 0.0 ? node.time_sec / total : 0.0;
  if (share * 100.0 < opts.min_percent) return;
  if (opts.max_depth >= 0 && depth > opts.max_depth) return;

  std::ostringstream name;
  name << std::string(static_cast<std::size_t>(depth) * 2, ' ')
       << node.name;
  os << std::left << std::setw(36) << name.str() << std::right
     << std::setw(12) << std::fixed << std::setprecision(6)
     << node.time_sec << std::setw(12) << exclusive_time(node)
     << std::setw(8) << std::setprecision(2) << share * 100.0 << "%";
  if (opts.show_metrics) {
    for (const auto& m : metric_names) {
      auto it = node.metrics.find(m);
      os << std::setw(14);
      if (it == node.metrics.end()) {
        os << "--";
      } else {
        os << std::scientific << std::setprecision(3) << it->second;
      }
    }
  }
  os << '\n';
  for (const auto& c : node.children) {
    render(c, depth + 1, total, opts, metric_names, os);
  }
}

}  // namespace

std::string runtime_report(const Profile& profile,
                           const ReportOptions& opts) {
  double total = 0.0;
  for (const auto& r : profile.roots) total += r.time_sec;

  std::vector<std::string> metric_names;
  if (opts.show_metrics) {
    std::set<std::string> names;
    profile.for_each([&](const std::string&, const ProfileNode& n) {
      for (const auto& [k, v] : n.metrics) names.insert(k);
    });
    metric_names.assign(names.begin(), names.end());
  }

  std::ostringstream os;
  os << std::left << std::setw(36) << "Path" << std::right << std::setw(12)
     << "Incl (s)" << std::setw(12) << "Excl (s)" << std::setw(9)
     << "Time %";
  for (const auto& m : metric_names) os << std::setw(14) << m;
  os << '\n';
  for (const auto& r : profile.roots) {
    render(r, 0, total, opts, metric_names, os);
  }
  return os.str();
}

}  // namespace rperf::cali
