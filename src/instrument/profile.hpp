// Performance profiles (the ".cali file" substitute), the instrument
// layer's one region tree.
//
// A `Profile` is one instrumented run: run metadata plus a tree of regions
// with time, visit count, and attributed metrics. A `Channel` records into
// one (channel.hpp); profiles merge, round-trip through JSON files, and
// feed the analysis toolkit (thicket substitute).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "instrument/json.hpp"

namespace rperf::cali {

struct ProfileNode {
  std::string name;
  double time_sec = 0.0;
  std::uint64_t visit_count = 0;
  std::map<std::string, double> metrics;
  std::vector<ProfileNode> children;
};

struct Profile {
  std::map<std::string, std::string> metadata;
  std::vector<ProfileNode> roots;

  /// Depth-first visit of every node with its slash-joined path.
  void for_each(const std::function<void(const std::string& path,
                                         const ProfileNode&)>& fn) const;

  /// Find a node by slash-joined path; nullptr when absent.
  [[nodiscard]] const ProfileNode* find(const std::string& path) const;

  /// Number of nodes in the tree.
  [[nodiscard]] std::size_t node_count() const;
};

/// A number as metadata text, in the stream's default form ("0.05").
[[nodiscard]] std::string metadata_text(double value);

/// Index of the node named `name` in `nodes`, appending an empty node of
/// that name when there is none.
[[nodiscard]] std::size_t child_index(std::vector<ProfileNode>& nodes,
                                      const std::string& name);

/// Fold `src` into `dst`: matching region paths sum their time, visit
/// counts, and metrics; new paths are appended in `src`'s order; `src`'s
/// metadata overwrites same-keyed entries. The executor commits each
/// passed cell into its (variant, tuning) profile this way, whether the
/// cell ran in this process or a worker, or was restored by --resume.
void merge(Profile& dst, const Profile& src);

/// Serialize a profile to a JSON file (throws std::runtime_error on I/O
/// failure).
void write_profile(const Profile& profile, const std::string& path);

/// Parse a profile previously written by write_profile.
[[nodiscard]] Profile read_profile(const std::string& path);

/// File name of one (variant, tuning) profile in an output directory.
/// Thicket::from_directory reads a directory in the order of these names.
[[nodiscard]] inline std::string profile_file_name(const std::string& variant,
                                                   const std::string& tuning) {
  return variant + "." + tuning + ".cali.json";
}

/// In-memory JSON (de)serialization.
[[nodiscard]] std::string profile_to_json(const Profile& profile);
[[nodiscard]] Profile profile_from_json(const std::string& text);

/// json::Value forms, for embedding a profile inside a larger document.
/// (The pool's pipe ships per-cell profiles as wire records instead:
/// instrument/wire_codec.hpp.)
[[nodiscard]] json::Value profile_to_value(const Profile& profile);
[[nodiscard]] Profile profile_from_value(const json::Value& v);

}  // namespace rperf::cali
