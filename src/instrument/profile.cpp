#include "instrument/profile.hpp"

#include <fstream>
#include <sstream>

#include "instrument/json.hpp"

namespace rperf::cali {

namespace {

void visit(const std::string& prefix, const ProfileNode& node,
           const std::function<void(const std::string&, const ProfileNode&)>&
               fn) {
  const std::string path =
      prefix.empty() ? node.name : prefix + "/" + node.name;
  fn(path, node);
  for (const ProfileNode& c : node.children) visit(path, c, fn);
}

void merge_nodes(std::vector<ProfileNode>& dst,
                 const std::vector<ProfileNode>& src) {
  for (const ProfileNode& s : src) {
    ProfileNode& d = dst[child_index(dst, s.name)];
    d.time_sec += s.time_sec;
    d.visit_count += s.visit_count;
    for (const auto& [name, value] : s.metrics) d.metrics[name] += value;
    merge_nodes(d.children, s.children);
  }
}

json::Value node_to_json(const ProfileNode& node) {
  json::Object obj;
  obj.emplace("name", node.name);
  obj.emplace("time", node.time_sec);
  obj.emplace("count", static_cast<double>(node.visit_count));
  if (!node.metrics.empty()) {
    json::Object metrics;
    for (const auto& [k, v] : node.metrics) metrics.emplace(k, v);
    obj.emplace("metrics", std::move(metrics));
  }
  if (!node.children.empty()) {
    json::Array children;
    for (const ProfileNode& c : node.children) {
      children.push_back(node_to_json(c));
    }
    obj.emplace("children", std::move(children));
  }
  return json::Value(std::move(obj));
}

ProfileNode node_from_json(const json::Value& v) {
  ProfileNode node;
  node.name = v.at("name").as_string();
  node.time_sec = v.number_or("time", 0.0);
  node.visit_count = static_cast<std::uint64_t>(v.number_or("count", 0.0));
  if (v.contains("metrics")) {
    for (const auto& [k, m] : v.at("metrics").as_object()) {
      node.metrics[k] = m.as_number();
    }
  }
  if (v.contains("children")) {
    for (const json::Value& c : v.at("children").as_array()) {
      node.children.push_back(node_from_json(c));
    }
  }
  return node;
}

}  // namespace

void Profile::for_each(
    const std::function<void(const std::string&, const ProfileNode&)>& fn)
    const {
  for (const ProfileNode& r : roots) visit("", r, fn);
}

const ProfileNode* Profile::find(const std::string& path) const {
  const ProfileNode* result = nullptr;
  for_each([&](const std::string& p, const ProfileNode& n) {
    if (p == path) result = &n;
  });
  return result;
}

std::size_t Profile::node_count() const {
  std::size_t count = 0;
  for_each([&](const std::string&, const ProfileNode&) { ++count; });
  return count;
}

std::string metadata_text(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

std::size_t child_index(std::vector<ProfileNode>& nodes,
                        const std::string& name) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == name) return i;
  }
  nodes.push_back(ProfileNode{name, 0.0, 0, {}, {}});
  return nodes.size() - 1;
}

void merge(Profile& dst, const Profile& src) {
  for (const auto& [key, value] : src.metadata) dst.metadata[key] = value;
  merge_nodes(dst.roots, src.roots);
}

json::Value profile_to_value(const Profile& profile) {
  json::Object top;
  json::Object meta;
  for (const auto& [k, v] : profile.metadata) meta.emplace(k, v);
  top.emplace("metadata", std::move(meta));
  json::Array roots;
  for (const ProfileNode& r : profile.roots) roots.push_back(node_to_json(r));
  top.emplace("regions", std::move(roots));
  top.emplace("format", "rperf-cali-1");
  return json::Value(std::move(top));
}

Profile profile_from_value(const json::Value& v) {
  Profile profile;
  if (v.contains("metadata")) {
    for (const auto& [k, m] : v.at("metadata").as_object()) {
      profile.metadata[k] = m.as_string();
    }
  }
  if (v.contains("regions")) {
    for (const json::Value& r : v.at("regions").as_array()) {
      profile.roots.push_back(node_from_json(r));
    }
  }
  return profile;
}

std::string profile_to_json(const Profile& profile) {
  return profile_to_value(profile).dump(2);
}

Profile profile_from_json(const std::string& text) {
  return profile_from_value(json::Value::parse(text));
}

void write_profile(const Profile& profile, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << profile_to_json(profile) << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

Profile read_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return profile_from_json(buffer.str());
}

}  // namespace rperf::cali
