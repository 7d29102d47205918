// Tests for the Caliper-substitute instrumentation library: JSON, channels,
// profile round-trips, and config parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>

#include "instrument/channel.hpp"
#include "instrument/config.hpp"
#include "instrument/json.hpp"
#include "instrument/profile.hpp"
#include "instrument/report.hpp"
#include "suite/data_utils.hpp"

namespace {

using namespace rperf;

// -------------------------------------------------------------------- json

TEST(Json, RoundTripsScalars) {
  EXPECT_EQ(json::Value(nullptr).dump(), "null");
  EXPECT_EQ(json::Value(true).dump(), "true");
  EXPECT_EQ(json::Value(false).dump(), "false");
  EXPECT_EQ(json::Value(42).dump(), "42");
  EXPECT_EQ(json::Value(2.5).dump(), "2.5");
  EXPECT_EQ(json::Value("hi").dump(), "\"hi\"");
}

TEST(Json, ParsesNestedDocument) {
  const auto v = json::Value::parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(v.at("a").as_array()[2].as_string(), "x");
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("b").at("d").is_null());
}

TEST(Json, RoundTripsThroughDumpAndParse) {
  json::Object obj;
  obj.emplace("name", "Stream_TRIAD");
  obj.emplace("time", 0.00123456789);
  obj.emplace("tags", json::Array{json::Value("a"), json::Value(7)});
  const json::Value original{std::move(obj)};
  for (int indent : {-1, 0, 2, 4}) {
    const json::Value reparsed = json::Value::parse(original.dump(indent));
    EXPECT_EQ(reparsed.at("name").as_string(), "Stream_TRIAD");
    EXPECT_DOUBLE_EQ(reparsed.at("time").as_number(), 0.00123456789);
    EXPECT_EQ(reparsed.at("tags").as_array()[1].as_number(), 7.0);
  }
}

TEST(Json, EscapesSpecialCharacters) {
  const std::string tricky = "a\"b\\c\nd\te";
  const json::Value v(tricky);
  EXPECT_EQ(json::Value::parse(v.dump()).as_string(), tricky);
}

TEST(Json, ParsesUnicodeEscapes) {
  const auto v = json::Value::parse(R"("Aé")");
  EXPECT_EQ(v.as_string(), "A\xc3\xa9");  // 'A' + e-acute in UTF-8
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse("{"), json::JsonError);
  EXPECT_THROW(json::Value::parse("[1,]"), json::JsonError);
  EXPECT_THROW(json::Value::parse("12 34"), json::JsonError);
  EXPECT_THROW(json::Value::parse("\"unterminated"), json::JsonError);
  EXPECT_THROW(json::Value::parse("{\"k\" 1}"), json::JsonError);
}

TEST(Json, TypedAccessThrowsOnMismatch) {
  const json::Value v(1.5);
  EXPECT_THROW((void)v.as_string(), json::JsonError);
  EXPECT_THROW((void)v.at("x"), json::JsonError);
  EXPECT_DOUBLE_EQ(v.as_number(), 1.5);
}

TEST(Json, IntegersSerializeWithoutDecimalPoint) {
  EXPECT_EQ(json::Value(1e6).dump(), "1000000");
  EXPECT_EQ(json::Value(-3.0).dump(), "-3");
}

// ----------------------------------------------------------------- channel

TEST(Channel, AccumulatesNestedRegions) {
  cali::Channel ch;
  ch.begin("outer");
  ch.begin("inner");
  ch.end("inner");
  ch.begin("inner");
  ch.end("inner");
  ch.end("outer");

  const auto& roots = ch.profile().roots;
  ASSERT_EQ(roots.size(), 1u);
  const auto& outer = roots[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.visit_count, 1u);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].visit_count, 2u);
  EXPECT_GE(outer.time_sec, outer.children[0].time_sec);
}

TEST(Channel, MetricsAttributeToOpenRegion) {
  cali::Channel ch;
  ch.begin("k");
  ch.attribute_metric("flops", 100.0);
  ch.attribute_metric("flops", 50.0);
  ch.attribute_metric("bytes", 8.0);
  ch.end("k");
  const auto* node = ch.profile().find("k");
  ASSERT_NE(node, nullptr);
  EXPECT_DOUBLE_EQ(node->metrics.at("flops"), 150.0);
  EXPECT_DOUBLE_EQ(node->metrics.at("bytes"), 8.0);
}

TEST(Channel, DetectsMismatchedEnd) {
  cali::Channel ch;
  ch.begin("a");
  EXPECT_THROW(ch.end("b"), cali::AnnotationError);
  ch.end("a");
  EXPECT_THROW(ch.end("a"), cali::AnnotationError);
}

TEST(Channel, RejectsMetricOutsideRegion) {
  cali::Channel ch;
  EXPECT_THROW(ch.attribute_metric("x", 1.0), cali::AnnotationError);
}

TEST(Channel, ScopedRegionClosesOnException) {
  cali::Channel ch;
  try {
    cali::ScopedRegion r(ch, "guarded");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ch.open_depth(), 0);
  EXPECT_EQ(ch.profile().find("guarded")->visit_count, 1u);
}

TEST(Channel, PathReflectsNesting) {
  cali::Channel ch;
  ch.begin("a");
  ch.begin("b");
  ch.end("b");
  ch.end("a");
  const cali::ProfileNode* b = ch.profile().find("a/b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name, "b");
  EXPECT_EQ(ch.profile().find("b"), nullptr);
}

TEST(Channel, OpenRegionSurvivesTheRootsGrowing) {
  // attribute_metric_at adds top-level regions while "open" is open.
  // Growing the roots moves every node, so end() must find the open
  // region by its path, not through a pointer taken at begin().
  cali::Channel ch;
  ch.begin("open");
  const std::size_t capacity = ch.profile().roots.capacity();
  for (int i = 0; ch.profile().roots.capacity() == capacity; ++i) {
    ch.attribute_metric_at("late" + std::to_string(i), "checksum_ms", 1.0);
  }
  ch.end("open");
  const cali::ProfileNode* open = ch.profile().find("open");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->visit_count, 1u);
  EXPECT_GT(open->time_sec, 0.0);
  EXPECT_EQ(ch.profile().find("late0")->visit_count, 0u);
}

// ----------------------------------------------------------------- profile

TEST(Profile, SnapshotsChannelTree) {
  cali::Channel ch;
  ch.set_metadata("variant", "RAJA_Seq");
  ch.begin("Stream_TRIAD");
  ch.attribute_metric("flops", 2.0e6);
  ch.end("Stream_TRIAD");
  ch.begin("Stream_ADD");
  ch.end("Stream_ADD");

  const cali::Profile& p = ch.profile();
  EXPECT_EQ(p.metadata.at("variant"), "RAJA_Seq");
  EXPECT_EQ(p.roots.size(), 2u);
  EXPECT_EQ(p.node_count(), 2u);
  const auto* triad = p.find("Stream_TRIAD");
  ASSERT_NE(triad, nullptr);
  EXPECT_DOUBLE_EQ(triad->metrics.at("flops"), 2.0e6);
}

TEST(Profile, JsonRoundTripPreservesStructure) {
  cali::Channel ch;
  ch.set_metadata("machine", "SPR-DDR");
  ch.begin("group");
  ch.begin("kernel");
  ch.attribute_metric("bytes_read", 123.0);
  ch.end("kernel");
  ch.end("group");

  const cali::Profile& original = ch.profile();
  const cali::Profile restored =
      cali::profile_from_json(cali::profile_to_json(original));
  EXPECT_EQ(restored.metadata.at("machine"), "SPR-DDR");
  const auto* kernel = restored.find("group/kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_DOUBLE_EQ(kernel->metrics.at("bytes_read"), 123.0);
  EXPECT_EQ(restored.node_count(), original.node_count());
}

TEST(Profile, FileRoundTrip) {
  cali::Channel ch;
  ch.set_metadata("variant", "Base_Seq");
  ch.begin("k1");
  ch.end("k1");
  const std::string path =
      (std::filesystem::temp_directory_path() / "rperf_test_profile.json")
          .string();
  cali::write_profile(ch.profile(), path);
  const cali::Profile p = cali::read_profile(path);
  EXPECT_EQ(p.metadata.at("variant"), "Base_Seq");
  EXPECT_NE(p.find("k1"), nullptr);
  std::remove(path.c_str());
}

TEST(Profile, ReadMissingFileThrows) {
  EXPECT_THROW(cali::read_profile("/nonexistent/path/x.json"),
               std::runtime_error);
}

// ---------------------------------------------------------- runtime report

TEST(RuntimeReport, ShowsHierarchyWithSharesAndExclusiveTime) {
  cali::Profile prof;
  cali::ProfileNode inner{"inner", 1.0, 1, {}, {}};
  cali::ProfileNode outer{"outer", 3.0, 1, {}, {inner}};
  prof.roots.push_back(outer);
  prof.roots.push_back(cali::ProfileNode{"other", 1.0, 1, {}, {}});

  const std::string report = cali::runtime_report(prof);
  EXPECT_NE(report.find("outer"), std::string::npos);
  EXPECT_NE(report.find("  inner"), std::string::npos);  // indented child
  EXPECT_NE(report.find("75.00%"), std::string::npos);   // outer share
  EXPECT_NE(report.find("25.00%"), std::string::npos);
  // outer exclusive = 3.0 - 1.0 = 2.0
  EXPECT_NE(report.find("2.000000"), std::string::npos);
}

TEST(RuntimeReport, MinPercentFiltersSmallRegions) {
  cali::Profile prof;
  prof.roots.push_back(cali::ProfileNode{"big", 99.0, 1, {}, {}});
  prof.roots.push_back(cali::ProfileNode{"tiny", 1.0, 1, {}, {}});
  cali::ReportOptions opts;
  opts.min_percent = 5.0;
  const std::string report = cali::runtime_report(prof, opts);
  EXPECT_NE(report.find("big"), std::string::npos);
  EXPECT_EQ(report.find("tiny"), std::string::npos);
}

TEST(RuntimeReport, MaxDepthTruncatesTree) {
  cali::Profile prof;
  cali::ProfileNode leaf{"leaf", 1.0, 1, {}, {}};
  cali::ProfileNode mid{"mid", 1.0, 1, {}, {leaf}};
  prof.roots.push_back(cali::ProfileNode{"root", 1.0, 1, {}, {mid}});
  cali::ReportOptions opts;
  opts.max_depth = 1;
  const std::string report = cali::runtime_report(prof, opts);
  EXPECT_NE(report.find("mid"), std::string::npos);
  EXPECT_EQ(report.find("leaf"), std::string::npos);
}

TEST(RuntimeReport, MetricColumnsWhenRequested) {
  cali::Channel ch;
  ch.begin("k");
  ch.attribute_metric("flops", 1.0e6);
  ch.end("k");
  cali::ReportOptions opts;
  opts.show_metrics = true;
  const std::string report = cali::runtime_report(ch.profile(), opts);
  EXPECT_NE(report.find("flops"), std::string::npos);
  EXPECT_NE(report.find("1.000e+06"), std::string::npos);
}

// ------------------------------------------------------------------ config

TEST(ConfigManager, ParsesBareSpecs) {
  cali::ConfigManager cm("runtime-report,event-trace");
  EXPECT_TRUE(cm.has("runtime-report"));
  EXPECT_TRUE(cm.has("event-trace"));
  EXPECT_FALSE(cm.has("spot"));
}

TEST(ConfigManager, AttachesOptionsToPrecedingSpec) {
  cali::ConfigManager cm("runtime-report,output=run.cali,max_depth=3");
  const auto& spec = cm.get("runtime-report");
  EXPECT_EQ(spec.option_or("output", ""), "run.cali");
  EXPECT_EQ(spec.option_or("max_depth", ""), "3");
  EXPECT_EQ(spec.option_or("missing", "dflt"), "dflt");
}

TEST(ConfigManager, ParsesParenthesizedOptionGroups) {
  cali::ConfigManager cm("spot(output=x.cali,metrics=topdown),runtime-report");
  const auto& spot = cm.get("spot");
  EXPECT_EQ(spot.option_or("output", ""), "x.cali");
  EXPECT_EQ(spot.option_or("metrics", ""), "topdown");
  EXPECT_TRUE(cm.has("runtime-report"));
}

TEST(ConfigManager, FlagOptionsDefaultTrue) {
  cali::ConfigManager cm("spot(profile.mpi)");
  EXPECT_EQ(cm.get("spot").option_or("profile.mpi", ""), "true");
}

TEST(ConfigManager, RejectsMalformedInput) {
  EXPECT_THROW(cali::ConfigManager("spot(unclosed"), cali::ConfigError);
  EXPECT_THROW(cali::ConfigManager("output=x.cali"), cali::ConfigError);
  EXPECT_THROW(cali::ConfigManager cm{"a)b"}, cali::ConfigError);
}

TEST(ConfigManager, GetUnknownThrows) {
  cali::ConfigManager cm("runtime-report");
  EXPECT_THROW((void)cm.get("nope"), cali::ConfigError);
}

// --------------------------------------------------------------- json fuzz

json::Value random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 2 ? 3 : 5);
  std::uniform_real_distribution<double> num(-1e6, 1e6);
  std::uniform_int_distribution<int> len(0, 4);
  switch (kind(rng)) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(kind(rng) % 2 == 0);
    case 2: return json::Value(num(rng));
    case 3: {
      std::string str;
      const int n = len(rng);
      for (int i = 0; i < n; ++i) {
        str += static_cast<char>('a' + (rng() % 26));
        if (rng() % 5 == 0) str += "\"\\\n";
      }
      return json::Value(str);
    }
    case 4: {
      json::Array arr;
      const int n = len(rng);
      for (int i = 0; i < n; ++i) arr.push_back(random_value(rng, depth + 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      const int n = len(rng);
      for (int i = 0; i < n; ++i) {
        obj.emplace("k" + std::to_string(i), random_value(rng, depth + 1));
      }
      return json::Value(std::move(obj));
    }
  }
}

TEST(JsonFuzz, RandomDocumentsRoundTrip) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const json::Value original = random_value(rng, 0);
    for (int indent : {-1, 2}) {
      const std::string text = original.dump(indent);
      const json::Value reparsed = json::Value::parse(text);
      // Idempotence: dump(parse(dump(x))) == dump(x).
      EXPECT_EQ(reparsed.dump(indent), text) << "trial " << trial;
    }
  }
}

// -------------------------------------------------------------- data utils

TEST(DataUtils, InitDataIsDeterministicPerSeed) {
  std::vector<double> a, b, c;
  rperf::suite::init_data(a, 1000, 7u);
  rperf::suite::init_data(b, 1000, 7u);
  rperf::suite::init_data(c, 1000, 8u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (double v : a) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(DataUtils, RampCoversRange) {
  std::vector<double> v;
  rperf::suite::init_data_ramp(v, 100, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(v.front(), -1.0);
  EXPECT_LT(v.back(), 1.0);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(DataUtils, IntDataStaysInBounds) {
  std::vector<int> v;
  rperf::suite::init_int_data(v, 10000, -5, 5, 3u);
  for (int x : v) {
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(DataUtils, ChecksumDetectsPermutations) {
  std::vector<double> v;
  rperf::suite::init_data(v, 100, 11u);
  const long double original = rperf::suite::calc_checksum(v);
  std::swap(v[3], v[4]);  // different weights (i%7): detectable
  EXPECT_NE(original, rperf::suite::calc_checksum(v));
}

TEST(DataUtils, ChecksumToleranceBehaviour) {
  EXPECT_TRUE(rperf::suite::checksums_match(1.0L, 1.0L + 1e-12L, 1e-9));
  EXPECT_FALSE(rperf::suite::checksums_match(1.0L, 1.001L, 1e-9));
  // Scale-relative: large values with the same relative error match.
  EXPECT_TRUE(rperf::suite::checksums_match(1.0e12L, 1.0e12L + 1.0L, 1e-9));
}

}  // namespace
