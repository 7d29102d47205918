// Tests for the Thicket substitute (EDA) and the clustering machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>

#include "analysis/cluster.hpp"
#include "analysis/simulate.hpp"
#include "analysis/thicket.hpp"

namespace {

using namespace rperf;

cali::Profile make_profile(const std::string& variant, double triad_time,
                           double daxpy_time) {
  cali::Channel ch;
  ch.set_metadata("variant", variant);
  ch.set_metadata("machine", "HOST");
  ch.begin("Stream_TRIAD");
  ch.attribute_metric("time", triad_time);
  ch.attribute_metric("flops", 100.0);
  ch.end("Stream_TRIAD");
  ch.begin("Basic_DAXPY");
  ch.attribute_metric("time", daxpy_time);
  ch.end("Basic_DAXPY");
  return ch.profile();
}

// --------------------------------------------------------------- thicket

TEST(Thicket, IndexesNodeUnion) {
  auto tk = thicket::Thicket::from_profiles(
      {make_profile("A", 1.0, 2.0), make_profile("B", 3.0, 4.0)});
  EXPECT_EQ(tk.num_profiles(), 2u);
  ASSERT_EQ(tk.nodes().size(), 2u);
  EXPECT_EQ(tk.nodes()[0], "Stream_TRIAD");
}

TEST(Thicket, ValueLooksUpAttributedMetrics) {
  auto tk = thicket::Thicket::from_profiles({make_profile("A", 1.5, 2.5)});
  EXPECT_DOUBLE_EQ(*tk.value("Stream_TRIAD", 0, "time"), 1.5);
  EXPECT_DOUBLE_EQ(*tk.value("Stream_TRIAD", 0, "flops"), 100.0);
  EXPECT_FALSE(tk.value("Stream_TRIAD", 0, "nonexistent").has_value());
  EXPECT_FALSE(tk.value("Nope", 0, "time").has_value());
}

TEST(Thicket, GroupbySplitsOnMetadata) {
  auto tk = thicket::Thicket::from_profiles({make_profile("Base_Seq", 1, 1),
                                             make_profile("RAJA_Seq", 2, 2),
                                             make_profile("Base_Seq", 3, 3)});
  const auto groups = tk.groupby("variant");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at("Base_Seq").num_profiles(), 2u);
  EXPECT_EQ(groups.at("RAJA_Seq").num_profiles(), 1u);
}

TEST(Thicket, StatsAggregateAcrossProfiles) {
  auto tk = thicket::Thicket::from_profiles({make_profile("A", 1.0, 0.0),
                                             make_profile("B", 2.0, 0.0),
                                             make_profile("C", 6.0, 0.0)});
  const auto s = tk.stats("Stream_TRIAD", "time");
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_NEAR(s.stddev, std::sqrt(7.0), 1e-12);
}

TEST(Thicket, StatsOnMissingNodeAreEmpty) {
  auto tk = thicket::Thicket::from_profiles({make_profile("A", 1.0, 2.0)});
  EXPECT_EQ(tk.stats("Nope", "time").count, 0u);
}

TEST(Thicket, FilterProfilesAndNodes) {
  auto tk = thicket::Thicket::from_profiles(
      {make_profile("Base_Seq", 1, 1), make_profile("RAJA_Seq", 2, 2)});
  const auto only_raja = tk.filter_profiles([](const auto& meta) {
    return meta.at("variant") == "RAJA_Seq";
  });
  EXPECT_EQ(only_raja.num_profiles(), 1u);
  const auto only_triad = tk.filter_nodes(
      [](const std::string& n) { return n == "Stream_TRIAD"; });
  EXPECT_EQ(only_triad.nodes().size(), 1u);
}

TEST(Thicket, ConcatAppendsProfiles) {
  auto a = thicket::Thicket::from_profiles({make_profile("A", 1, 1)});
  auto b = thicket::Thicket::from_profiles({make_profile("B", 2, 2)});
  const auto both = thicket::Thicket::concat({a, b});
  EXPECT_EQ(both.num_profiles(), 2u);
}

TEST(Thicket, FromDirectoryReadsCaliFiles) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rperf_thicket_test";
  std::filesystem::create_directories(dir);
  cali::write_profile(make_profile("A", 1, 1),
                      (dir / "a.cali.json").string());
  cali::write_profile(make_profile("B", 2, 2),
                      (dir / "b.cali.json").string());
  const auto tk = thicket::Thicket::from_directory(dir.string());
  EXPECT_EQ(tk.num_profiles(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(Thicket, TableRendersLabelsAndValues) {
  auto tk = thicket::Thicket::from_profiles(
      {make_profile("Base_Seq", 1, 1), make_profile("RAJA_Seq", 2, 2)});
  const std::string table = tk.table("time", "variant");
  EXPECT_NE(table.find("Base_Seq"), std::string::npos);
  EXPECT_NE(table.find("RAJA_Seq"), std::string::npos);
  EXPECT_NE(table.find("Stream_TRIAD"), std::string::npos);
}

TEST(Thicket, TableKeepsLongLabelsApart) {
  auto a = make_profile("A", 1, 1);
  auto b = make_profile("B", 2, 2);
  a.metadata["run_id"] = "95b8b7f678a419c3";
  b.metadata["run_id"] = "3c01aa0000000000";
  const std::string table =
      thicket::Thicket::from_profiles({a, b}).table("time", "run_id");
  EXPECT_NE(table.find(" 95b8b7f678a419c3 3c01aa0000000000\n"),
            std::string::npos)
      << table;
}

TEST(Thicket, TopKeepsLargestMeansFirst) {
  // Means: Stream_TRIAD 2, Basic_DAXPY 3; "flops" lives only on TRIAD.
  auto tk = thicket::Thicket::from_profiles(
      {make_profile("A", 1, 4), make_profile("B", 3, 2)});
  const auto top = tk.top("time", 5);
  ASSERT_EQ(top.nodes().size(), 2u);
  EXPECT_EQ(top.nodes()[0], "Basic_DAXPY");
  EXPECT_EQ(top.nodes()[1], "Stream_TRIAD");
  EXPECT_EQ(top.num_profiles(), 2u);
  ASSERT_EQ(tk.top("time", 1).nodes().size(), 1u);
  EXPECT_EQ(tk.top("time", 1).nodes()[0], "Basic_DAXPY");
  ASSERT_EQ(tk.top("flops", 5).nodes().size(), 1u);
  EXPECT_EQ(tk.top("flops", 5).nodes()[0], "Stream_TRIAD");
  // Views follow the narrowed node list.
  EXPECT_EQ(tk.top("time", 1).table("time", "variant").find("Stream_TRIAD"),
            std::string::npos);
}

TEST(Thicket, DeriveAddsComputedMetric) {
  auto tk = thicket::Thicket::from_profiles({make_profile("A", 2.0, 4.0)});
  const auto derived = tk.derive("flops_per_sec", [](const auto& metrics) {
    auto f = metrics.find("flops");
    auto t = metrics.find("time");
    if (f == metrics.end() || t == metrics.end() || t->second == 0.0) {
      return std::optional<double>{};
    }
    return std::optional<double>{f->second / t->second};
  });
  // Stream_TRIAD has flops=100, time=2 -> 50; Basic_DAXPY has no flops.
  EXPECT_DOUBLE_EQ(*derived.value("Stream_TRIAD", 0, "flops_per_sec"), 50.0);
  EXPECT_FALSE(derived.value("Basic_DAXPY", 0, "flops_per_sec").has_value());
  // The original is untouched.
  EXPECT_FALSE(tk.value("Stream_TRIAD", 0, "flops_per_sec").has_value());
}

TEST(Thicket, CsvExportHasHeaderAndRows) {
  auto tk = thicket::Thicket::from_profiles(
      {make_profile("Base_Seq", 1.5, 2.5), make_profile("RAJA_Seq", 3.0, 4.0)});
  const std::string csv = tk.to_csv({"time"}, {"variant"});
  EXPECT_NE(csv.find("node,variant,time"), std::string::npos);
  EXPECT_NE(csv.find("Stream_TRIAD,Base_Seq,1.5"), std::string::npos);
  EXPECT_NE(csv.find("Basic_DAXPY,RAJA_Seq,4"), std::string::npos);
  // rows = nodes x profiles + header
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

TEST(Thicket, TreeRendersMetricAnnotatedHierarchy) {
  cali::Channel ch;
  ch.begin("suite");
  ch.begin("Stream_TRIAD");
  ch.attribute_metric("time", 2.5);
  ch.end("Stream_TRIAD");
  ch.end("suite");
  auto tk = thicket::Thicket::from_profiles({ch.profile()});
  const std::string tree = tk.tree(0, "time");
  EXPECT_NE(tree.find("suite"), std::string::npos);
  EXPECT_NE(tree.find("  2.5  Stream_TRIAD"), std::string::npos);
}

// ------------------------------------------------------------- comparison

TEST(Compare, ComputesPerNodeRatios) {
  auto baseline = thicket::Thicket::from_profiles(
      {make_profile("A", 2.0, 4.0), make_profile("B", 4.0, 4.0)});
  auto candidate = thicket::Thicket::from_profiles(
      {make_profile("C", 6.0, 2.0)});
  const auto rows = thicket::compare(baseline, candidate, "time");
  ASSERT_EQ(rows.size(), 2u);
  // TRIAD baseline mean = 3, candidate = 6 -> 2x regression.
  EXPECT_EQ(rows[0].node, "Stream_TRIAD");
  EXPECT_DOUBLE_EQ(rows[0].baseline, 3.0);
  EXPECT_DOUBLE_EQ(rows[0].ratio, 2.0);
  // DAXPY baseline mean = 4, candidate = 2 -> 0.5x improvement.
  EXPECT_DOUBLE_EQ(rows[1].ratio, 0.5);
}

TEST(Compare, SkipsNodesMissingOnEitherSide) {
  cali::Channel only_triad;
  only_triad.begin("Stream_TRIAD");
  only_triad.attribute_metric("time", 1.0);
  only_triad.end("Stream_TRIAD");
  auto baseline =
      thicket::Thicket::from_profiles({make_profile("A", 1.0, 2.0)});
  auto candidate =
      thicket::Thicket::from_profiles({only_triad.profile()});
  const auto rows = thicket::compare(baseline, candidate, "time");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].node, "Stream_TRIAD");
}

TEST(Compare, OutliersFlagBothDirections) {
  std::vector<thicket::CompareRow> rows = {
      {"fine", 1.0, 1.05, 1.05},
      {"regressed", 1.0, 1.5, 1.5},
      {"improved", 1.0, 0.5, 0.5},
  };
  const auto flagged = thicket::outliers(rows, 1.1);
  ASSERT_EQ(flagged.size(), 2u);
  EXPECT_EQ(flagged[0].node, "regressed");
  EXPECT_EQ(flagged[1].node, "improved");
  EXPECT_THROW(thicket::outliers(rows, 0.5), std::invalid_argument);
}

TEST(Compare, RenderListsEveryRow) {
  const std::vector<thicket::CompareRow> rows = {
      {"Stream_TRIAD", 1.0, 2.0, 2.0}};
  const auto text = thicket::render_comparison(rows);
  EXPECT_NE(text.find("Stream_TRIAD"), std::string::npos);
  EXPECT_NE(text.find("2.000"), std::string::npos);
}

// ------------------------------------------------------------ clustering

TEST(Cluster, DistanceMatrixIsSymmetricWithZeroDiagonal) {
  const std::vector<std::vector<double>> pts = {
      {0, 0}, {3, 4}, {6, 8}};
  const auto d = analysis::distance_matrix(pts);
  EXPECT_DOUBLE_EQ(d[0][0], 0.0);
  EXPECT_DOUBLE_EQ(d[0][1], 5.0);
  EXPECT_DOUBLE_EQ(d[1][0], 5.0);
  EXPECT_DOUBLE_EQ(d[0][2], 10.0);
}

TEST(Cluster, DistanceMatrixRejectsBadInput) {
  EXPECT_THROW(analysis::distance_matrix({}), std::invalid_argument);
  EXPECT_THROW(analysis::distance_matrix({{1.0, 2.0}, {1.0}}),
               std::invalid_argument);
}

TEST(Cluster, WardLinkageHasMonotoneDistances) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 40; ++i) pts.push_back({dist(rng), dist(rng)});
  const auto links = analysis::ward_linkage(pts);
  ASSERT_EQ(links.size(), 39u);
  for (std::size_t i = 1; i < links.size(); ++i) {
    EXPECT_GE(links[i].distance, links[i - 1].distance) << i;
  }
  EXPECT_EQ(links.back().size, 40);
}

TEST(Cluster, RecoversWellSeparatedBlobs) {
  std::mt19937 rng(7);
  std::normal_distribution<double> noise(0.0, 0.05);
  std::vector<std::vector<double>> pts;
  std::vector<int> truth;
  const std::vector<std::vector<double>> centers = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 15; ++i) {
      pts.push_back({centers[static_cast<std::size_t>(c)][0] + noise(rng),
                     centers[static_cast<std::size_t>(c)][1] + noise(rng)});
      truth.push_back(c);
    }
  }
  const auto links = analysis::ward_linkage(pts);
  const auto assign = analysis::fcluster(links, pts.size(), 3.0);
  int k = 0;
  for (int a : assign) k = std::max(k, a + 1);
  EXPECT_EQ(k, 3);
  // Same-blob points share a cluster; different blobs do not.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_EQ(assign[i] == assign[j], truth[i] == truth[j])
          << i << "," << j;
    }
  }
}

TEST(Cluster, FclusterThresholdExtremes) {
  const std::vector<std::vector<double>> pts = {
      {0.0}, {1.0}, {2.0}, {10.0}};
  const auto links = analysis::ward_linkage(pts);
  // Tiny threshold: everything separate.
  auto a0 = analysis::fcluster(links, 4, 1e-12);
  int k0 = 0;
  for (int a : a0) k0 = std::max(k0, a + 1);
  EXPECT_EQ(k0, 4);
  // Huge threshold: one cluster.
  auto a1 = analysis::fcluster(links, 4, 1e12);
  for (int a : a1) EXPECT_EQ(a, a1[0]);
}

TEST(Cluster, MeansAverageMembers) {
  const std::vector<std::vector<double>> pts = {
      {0.0, 2.0}, {2.0, 4.0}, {10.0, 10.0}};
  const std::vector<int> assign = {0, 0, 1};
  const auto means = analysis::cluster_means(pts, assign);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0][0], 1.0);
  EXPECT_DOUBLE_EQ(means[0][1], 3.0);
  EXPECT_DOUBLE_EQ(means[1][0], 10.0);
}

TEST(Cluster, DendrogramListsEveryLabel) {
  const std::vector<std::vector<double>> pts = {{0.0}, {1.0}, {5.0}};
  const auto links = analysis::ward_linkage(pts);
  const auto text =
      analysis::render_dendrogram(links, {"alpha", "beta", "gamma"});
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("gamma"), std::string::npos);
  EXPECT_NE(text.find("merge"), std::string::npos);
}

// -------------------------------------------------------------- simulate

TEST(Simulate, CoversEveryRegisteredKernel) {
  const auto sims = analysis::simulate_suite(machine::spr_ddr());
  EXPECT_EQ(sims.size(), suite::all_kernel_names().size());
  for (const auto& r : sims) {
    EXPECT_GT(r.prediction.time_sec, 0.0) << r.kernel;
    EXPECT_NEAR(r.prediction.tma.sum(), 1.0, 1e-9) << r.kernel;
  }
}

TEST(Simulate, ProfileCarriesTMAMetricsAndMetadata) {
  const auto& m = machine::spr_ddr();
  const auto prof = analysis::to_profile(analysis::simulate_suite(m), m);
  EXPECT_EQ(prof.metadata.at("machine"), "SPR-DDR");
  EXPECT_EQ(prof.metadata.at("variant"), "RAJA_Seq");
  EXPECT_EQ(prof.metadata.at("simulated"), "true");
  const auto* triad = prof.find("Stream_TRIAD");
  ASSERT_NE(triad, nullptr);
  EXPECT_TRUE(triad->metrics.count("tma_memory_bound"));
  EXPECT_TRUE(triad->metrics.count("time"));
  EXPECT_FALSE(triad->metrics.count("dram__sectors_read.sum"));
}

TEST(Simulate, GPUProfilesCarryNCUCounters) {
  const auto& m = machine::p9_v100();
  const auto prof = analysis::to_profile(analysis::simulate_suite(m), m);
  EXPECT_EQ(prof.metadata.at("variant"), "RAJA_CUDA");
  const auto* triad = prof.find("Stream_TRIAD");
  ASSERT_NE(triad, nullptr);
  EXPECT_TRUE(triad->metrics.count("dram__sectors_read.sum"));
}

TEST(Simulate, ClusteringExcludesNonLinearKernels) {
  const auto sims = analysis::simulate_suite(machine::spr_ddr());
  int excluded = 0;
  for (const auto& r : sims) {
    if (!analysis::included_in_clustering(r)) {
      ++excluded;
      EXPECT_NE(r.complexity, suite::Complexity::N) << r.kernel;
    }
  }
  // Comm (5) + sorts (2) + matrix-matrix kernels (5) = 12, as the paper
  // excludes 12 of its 75.
  EXPECT_EQ(excluded, 12);
}

TEST(Simulate, PaperRunConfigsMatchTableIII) {
  const auto& configs = analysis::paper_run_configs();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[0].machine, "SPR-DDR");
  EXPECT_EQ(configs[0].nprocs, 112);
  EXPECT_EQ(configs[2].variant, "RAJA_CUDA");
  EXPECT_EQ(configs[3].nprocs, 8);
  for (const auto& c : configs) {
    // Integer decomposition: within one rank's share of 32M per node.
    EXPECT_NEAR(static_cast<double>(c.problem_size_per_proc * c.nprocs),
                static_cast<double>(analysis::kPaperProblemSize), c.nprocs);
  }
}

}  // namespace
