// Thicket substitute — exploratory data analysis over multi-run profiles.
//
// Mirrors the three-component structure of LLNL's Thicket:
//   * a performance-data table: (region node x profile) -> metric values,
//   * a metadata table: one row of key/value context per profile,
//   * aggregated statistics across profiles per node/metric.
//
// Composition mirrors the paper's workflow: read many .cali.json profiles
// (one per variant/tuning/machine), concatenate into one Thicket, group by
// metadata columns, and compute statistics for analysis and plotting.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "instrument/profile.hpp"

namespace rperf::thicket {

struct Statistics {
  std::size_t count = 0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

class Thicket {
 public:
  Thicket() = default;

  /// Build from profiles (one per run).
  static Thicket from_profiles(std::vector<cali::Profile> profiles);
  /// Read every .cali.json file in a directory.
  static Thicket from_directory(const std::string& dir);
  /// Concatenate thickets (profiles appended, node union taken).
  static Thicket concat(const std::vector<Thicket>& parts);

  [[nodiscard]] std::size_t num_profiles() const { return profiles_.size(); }
  /// Union of region paths across profiles, in first-seen order (top()
  /// narrows and reorders it).
  [[nodiscard]] const std::vector<std::string>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& metadata(
      std::size_t profile) const;
  [[nodiscard]] const cali::Profile& profile(std::size_t profile) const {
    return profiles_.at(profile);
  }

  /// Metric value at (node, profile); "time" and "count" are implicit
  /// metrics backed by the region's timing fields.
  [[nodiscard]] std::optional<double> value(const std::string& node,
                                            std::size_t profile,
                                            const std::string& metric) const;

  /// All metric names seen on any node.
  [[nodiscard]] std::vector<std::string> metrics() const;

  /// Split by a metadata key; profiles missing the key are dropped.
  [[nodiscard]] std::map<std::string, Thicket> groupby(
      const std::string& meta_key) const;

  /// Keep only profiles satisfying the metadata predicate.
  [[nodiscard]] Thicket filter_profiles(
      const std::function<bool(const std::map<std::string, std::string>&)>&
          pred) const;
  /// Keep only nodes satisfying the predicate.
  [[nodiscard]] Thicket filter_nodes(
      const std::function<bool(const std::string&)>& pred) const;
  /// Keep the `n` nodes with the largest mean `metric`, largest first
  /// (ties in first-seen order); nodes without the metric are dropped.
  /// Profiles are kept whole, so only views over nodes() change.
  [[nodiscard]] Thicket top(const std::string& metric, std::size_t n) const;

  /// Aggregate a metric across profiles at one node.
  [[nodiscard]] Statistics stats(const std::string& node,
                                 const std::string& metric) const;

  /// Render a fixed-width table of one metric: rows = nodes, columns =
  /// profiles labelled by the given metadata key.
  [[nodiscard]] std::string table(const std::string& metric,
                                  const std::string& label_key) const;

  /// Return a copy with a new metric computed per (node, profile) from the
  /// node's existing metrics ("time" and "count" included). The function
  /// may return nullopt to leave the node without the derived metric.
  [[nodiscard]] Thicket derive(
      const std::string& name,
      const std::function<std::optional<double>(
          const std::map<std::string, double>&)>& fn) const;

  /// CSV export: one row per (node, profile) with the requested metrics
  /// and metadata columns — the interchange format for external plotting.
  [[nodiscard]] std::string to_csv(
      const std::vector<std::string>& metric_names,
      const std::vector<std::string>& metadata_keys = {"variant",
                                                       "tuning"}) const;

  /// Hatchet-style indented tree of one profile annotated with a metric.
  [[nodiscard]] std::string tree(std::size_t profile,
                                 const std::string& metric = "time") const;

 private:
  void index_nodes();

  std::vector<cali::Profile> profiles_;
  std::vector<std::string> nodes_;
};

/// One row of a baseline-vs-candidate comparison.
struct CompareRow {
  std::string node;
  double baseline = 0.0;   ///< mean of the metric across baseline profiles
  double candidate = 0.0;  ///< mean across candidate profiles
  double ratio = 0.0;      ///< candidate / baseline
};

/// Compare a metric between two thickets node by node (means across each
/// side's profiles). Nodes missing on either side are skipped. The
/// continuous-benchmarking primitive: ratio > 1 means the candidate is
/// slower/larger on that node.
[[nodiscard]] std::vector<CompareRow> compare(const Thicket& baseline,
                                              const Thicket& candidate,
                                              const std::string& metric =
                                                  "time");

/// Rows whose ratio leaves [1/threshold, threshold] — the regressions and
/// improvements worth flagging.
[[nodiscard]] std::vector<CompareRow> outliers(
    const std::vector<CompareRow>& rows, double threshold);

/// Fixed-width rendering of comparison rows.
[[nodiscard]] std::string render_comparison(
    const std::vector<CompareRow>& rows);

}  // namespace rperf::thicket
