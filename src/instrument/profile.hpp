// Serialized performance profiles (the ".cali file" substitute).
//
// A `Profile` is the at-rest form of one instrumented run: run metadata plus
// a tree of regions with time, visit count, and attributed metrics. Channels
// convert to profiles; profiles round-trip through JSON files; the analysis
// toolkit (thicket substitute) ingests them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "instrument/channel.hpp"
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

/// Snapshot a channel's region tree into a profile.
[[nodiscard]] Profile to_profile(const Channel& channel);

/// Serialize a profile to a JSON file (throws std::runtime_error on I/O
/// failure).
void write_profile(const Profile& profile, const std::string& path);
void write_profile(const Channel& channel, const std::string& path);

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

/// Rebuild a channel whose region tree and metadata mirror `profile`,
/// so a deserialized profile can be folded into a live channel with
/// Channel::merge. Inverse of to_profile up to region ordering.
[[nodiscard]] Channel channel_from_profile(const Profile& profile);

}  // namespace rperf::cali
