// Tests for rperf::hwc — the perf_event_open hardware-counter service.
//
// Most of the module is testable without a PMU: the multiplex-scaling
// math, the PAPI-name parity with the simulator, the wire and store
// codecs, the fail-open contracts, and the simulated fallback are all
// deterministic. The tests that need real counters (an open event group
// observing real work, the service attributing measured metrics) skip
// themselves when the startup probe reports perf unavailable — the normal
// state in containers and VMs without a PMU — so the suite passes
// identically on bare metal and in CI sandboxes.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "counters/papi.hpp"
#include "counters/perf_event.hpp"
#include "instrument/channel.hpp"
#include "instrument/hwc.hpp"
#include "machine/machine.hpp"
#include "sandbox/wire.hpp"
#include "store/store.hpp"
#include "suite/executor.hpp"

namespace {

using namespace rperf;
namespace fs = std::filesystem;

machine::KernelTraits stream_traits(double n = 1e6) {
  machine::KernelTraits t;
  t.bytes_read = 16.0 * n;
  t.bytes_written = 8.0 * n;
  t.flops = 2.0 * n;
  t.working_set_bytes = 24.0 * n;
  t.avg_parallelism = n;
  return t;
}

// ------------------------------------------------------ multiplex math

TEST(HwcScaling, NeverScheduledMeansNoEstimate) {
  // time_running == 0: the PMU never ran the event. An extrapolation from
  // zero observation would be fiction — the contract is 0.0.
  EXPECT_DOUBLE_EQ(hwc::scale_multiplexed(12345, 1000, 0), 0.0);
  EXPECT_DOUBLE_EQ(hwc::scale_multiplexed(0, 0, 0), 0.0);
}

TEST(HwcScaling, FullCoverageIsIdentity) {
  EXPECT_DOUBLE_EQ(hwc::scale_multiplexed(12345, 1000, 1000), 12345.0);
  // running > enabled (clock skew in the kernel's accounting) must not
  // scale the value below the raw count.
  EXPECT_DOUBLE_EQ(hwc::scale_multiplexed(12345, 1000, 1001), 12345.0);
}

TEST(HwcScaling, HalfCoverageDoubles) {
  EXPECT_DOUBLE_EQ(hwc::scale_multiplexed(500, 1000, 500), 1000.0);
  EXPECT_DOUBLE_EQ(hwc::scale_multiplexed(300, 900, 300), 900.0);
}

TEST(HwcScaling, SampleMultiplexedFlag) {
  hwc::Sample s;
  s.time_enabled_ns = 1000;
  s.time_running_ns = 1000;
  EXPECT_FALSE(s.multiplexed());
  s.time_running_ns = 999;
  EXPECT_TRUE(s.multiplexed());
}

// ------------------------------------------------- PAPI vocabulary parity

TEST(HwcNames, StrictSubsetOfSimulatorVocabulary) {
  // Every measured event lands under a name the simulator also produces,
  // so downstream consumers (TMA rollups, clustering, rperf-report, the
  // store) cannot tell the sources apart structurally.
  const auto simulated =
      counters::simulate_papi(stream_traits(), machine::spr_ddr());
  const auto& names = hwc::papi_event_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    EXPECT_EQ(name.rfind("PAPI_", 0), 0u) << name;
    EXPECT_TRUE(simulated.count(name)) << name << " unknown to simulate_papi";
  }
  // Strict subset: generic perf events cannot cover the full preset list.
  EXPECT_LT(names.size(), simulated.size());
}

// ------------------------------------------------------------ wire codec

TEST(HwcWire, SampleRoundTripsBitExact) {
  hwc::Sample s;
  s.values = {{"PAPI_TOT_CYC", 1.25e9}, {"PAPI_TOT_INS", 3.5e9},
              {"PAPI_L3_TCM", 0.0}};
  s.time_enabled_ns = 123456789;
  s.time_running_ns = 987654;
  s.source = "measured";
  s.overhead_sec = 4.2e-5;

  wire::Writer w;
  hwc::sample_to_wire(s, w);
  wire::Reader r(w.buffer());
  const hwc::Sample back = hwc::sample_from_wire(r);
  EXPECT_EQ(back.source, s.source);
  EXPECT_EQ(back.time_enabled_ns, s.time_enabled_ns);
  EXPECT_EQ(back.time_running_ns, s.time_running_ns);
  EXPECT_DOUBLE_EQ(back.overhead_sec, s.overhead_sec);
  ASSERT_EQ(back.values.size(), s.values.size());
  for (const auto& [name, value] : s.values) {
    ASSERT_TRUE(back.values.count(name)) << name;
    EXPECT_DOUBLE_EQ(back.values.at(name), value) << name;
  }
}

TEST(HwcWire, SelfContainedModeDecodesWithoutDictionary) {
  hwc::Sample s;
  s.values = {{"PAPI_TOT_CYC", 7.0}};
  s.source = "simulated";
  wire::Writer w;
  w.set_self_contained(true);
  hwc::sample_to_wire(s, w);
  wire::Reader r(w.buffer());
  const hwc::Sample back = hwc::sample_from_wire(r);
  EXPECT_EQ(back.source, "simulated");
  EXPECT_DOUBLE_EQ(back.values.at("PAPI_TOT_CYC"), 7.0);
}

// ---------------------------------------------------------- store codec

TEST(HwcStore, CounterPayloadRoundTrips) {
  store::CounterRecord c;
  c.kernel = "Stream_TRIAD";
  c.variant = "Base_OpenMP";
  c.tuning = "default";
  c.source = "measured";
  c.time_enabled_ns = 5555;
  c.time_running_ns = 4444;
  c.overhead_sec = 1.5e-4;
  c.values = {{"PAPI_TOT_CYC", 1e9}, {"PAPI_BR_MSP", 12.0}};

  const store::CounterRecord back =
      store::decode_counter_payload(store::encode_counter_payload(c));
  EXPECT_EQ(back.kernel, c.kernel);
  EXPECT_EQ(back.variant, c.variant);
  EXPECT_EQ(back.tuning, c.tuning);
  EXPECT_EQ(back.source, c.source);
  EXPECT_EQ(back.time_enabled_ns, c.time_enabled_ns);
  EXPECT_EQ(back.time_running_ns, c.time_running_ns);
  EXPECT_DOUBLE_EQ(back.overhead_sec, c.overhead_sec);
  EXPECT_EQ(back.values, c.values);
}

TEST(HwcStore, CounterRecordsLandAndReadBack) {
  const std::string dir =
      (fs::temp_directory_path() / "rperf_hwc_store_roundtrip").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  store::CounterRecord c;
  c.kernel = "Basic_DAXPY";
  c.variant = "Base_Seq";
  c.tuning = "default";
  c.source = "simulated";
  c.values = {{"PAPI_TOT_INS", 2e9}};
  {
    store::StoreWriter w(dir);
    // Counter records belong to a run: appending outside one fails closed.
    EXPECT_THROW(w.add_counters(c), store::StoreError);
    w.begin_run({{"suite", "hwc-test"}, {"hwc", "on"}});
    store::CellRecord cell;
    cell.kernel = c.kernel;
    cell.variant = c.variant;
    cell.tuning = c.tuning;
    cell.status = "Passed";
    cell.time_per_rep_sec = 1e-5;
    w.add_cell(cell);
    w.add_counters(c);
    w.commit();
    w.finish_run();
  }
  store::StoreReader reader(dir);
  ASSERT_EQ(reader.runs().size(), 1u);
  const store::StoredRun& run = reader.runs()[0];
  ASSERT_EQ(run.counters.size(), 1u);
  EXPECT_EQ(run.counters[0].kernel, "Basic_DAXPY");
  EXPECT_EQ(run.counters[0].source, "simulated");
  EXPECT_DOUBLE_EQ(run.counters[0].values.at("PAPI_TOT_INS"), 2e9);

  // The typed record is part of the structural contract: fsck must scan
  // a counter-bearing ledger as clean.
  const store::FsckReport report = store::fsck(dir, false);
  EXPECT_EQ(report.status, store::FsckStatus::Clean);
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- probe

TEST(HwcProbe, NeverThrowsAndExplainsUnavailability) {
  const hwc::Probe p = hwc::probe();
  if (!p.available) {
    EXPECT_FALSE(p.reason.empty());
  } else {
    EXPECT_TRUE(p.reason.empty());
  }
  // The cached probe agrees with a fresh one on availability (kernel
  // policy does not flap between calls).
  EXPECT_EQ(hwc::cached_probe().available, p.available);
}

TEST(HwcProbe, ReadsParanoidLevelFromOverridePath) {
  const std::string path =
      (fs::temp_directory_path() / "rperf_hwc_paranoid").string();
  std::ofstream(path) << "3\n";
  EXPECT_EQ(hwc::probe(path).paranoid, 3);
  fs::remove(path);
  // Unreadable sysctl: the sentinel, not a throw.
  EXPECT_EQ(hwc::probe(path + ".missing").paranoid, -2);
}

// -------------------------------------------------------- measured_tma

TEST(HwcTma, NoCyclesMeansNoData) {
  EXPECT_DOUBLE_EQ(hwc::measured_tma({}).sum(), 0.0);
  EXPECT_DOUBLE_EQ(hwc::measured_tma({{"PAPI_TOT_INS", 1e9}}).sum(), 0.0);
}

TEST(HwcTma, FractionsArePartitionOfUnity) {
  const auto c = counters::simulate_papi(stream_traits(), machine::spr_ddr());
  const machine::TMAFractions tma = hwc::measured_tma(c);
  EXPECT_NEAR(tma.sum(), 1.0, 1e-9);
  for (const double f :
       {tma.frontend_bound, tma.bad_speculation, tma.retiring,
        tma.core_bound, tma.memory_bound}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(HwcTma, CacheMissesShiftAttributionToMemory) {
  counters::PAPICounters lean = {{"PAPI_TOT_CYC", 1e9},
                                 {"PAPI_TOT_INS", 1e9},
                                 {"PAPI_BR_INS", 1e8},
                                 {"PAPI_BR_MSP", 1e4}};
  counters::PAPICounters missy = lean;
  missy["PAPI_L2_DCM"] = 2e7;
  missy["PAPI_L3_TCM"] = 1e7;
  EXPECT_GT(hwc::measured_tma(missy).memory_bound,
            hwc::measured_tma(lean).memory_bound);
}

// -------------------------------------------------- simulated fallback

TEST(HwcSimulated, SampleSpeaksSimulatorVocabularyAndScalesLinearly) {
  const auto host = machine::spr_ddr();
  const hwc::Sample one = hwc::simulated_sample(stream_traits(), host, 1.0);
  const hwc::Sample ten = hwc::simulated_sample(stream_traits(), host, 10.0);
  EXPECT_EQ(one.source, "simulated");
  EXPECT_FALSE(one.empty());
  ASSERT_FALSE(one.values.empty());
  for (const auto& [name, value] : one.values) {
    ASSERT_TRUE(ten.values.count(name)) << name;
    EXPECT_NEAR(ten.values.at(name), 10.0 * value,
                1e-6 * std::abs(10.0 * value) + 1e-12)
        << name;
  }
}

// ------------------------------------------- service fail-open contract

TEST(HwcService, FailOpenLeavesChannelUntouched) {
  if (hwc::cached_probe().available) {
    GTEST_SKIP() << "perf available here; fail-open path not reachable";
  }
  cali::Channel ch;
  hwc::RegionCounterService svc;
  EXPECT_FALSE(svc.attach(ch));
  EXPECT_FALSE(svc.attached());
  EXPECT_FALSE(svc.active());
  EXPECT_FALSE(svc.reason().empty());
  // The channel still works and regions stay metric-free: the caller is
  // responsible for the simulated fallback.
  ch.begin("k");
  ch.end("k");
  const auto* node = ch.profile().find("k");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->metrics.empty());
  EXPECT_EQ(svc.regions_observed(), 0u);
  svc.detach(ch);  // no-op on an unattached service
}

// ------------------------------------- measured fixtures (need a PMU)

TEST(HwcMeasured, GroupCountsRealWork) {
  if (!hwc::cached_probe().available) {
    GTEST_SKIP() << "perf unavailable: " << hwc::cached_probe().reason;
  }
  hwc::PerfEventGroup group;
  std::string error;
  ASSERT_TRUE(group.open(&error)) << error;
  hwc::PerfEventGroup::Reading before;
  ASSERT_TRUE(group.read(&before));
  // Enough real work that cycles and instructions must advance.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1.0;
  hwc::PerfEventGroup::Reading after;
  ASSERT_TRUE(group.read(&after));
  ASSERT_EQ(before.values.size(), group.names().size());
  ASSERT_EQ(after.values.size(), group.names().size());
  bool cycles_advanced = false;
  for (std::size_t i = 0; i < group.names().size(); ++i) {
    if (group.names()[i] == "PAPI_TOT_CYC") {
      cycles_advanced = after.values[i] > before.values[i];
    }
    EXPECT_GE(after.values[i], before.values[i]) << group.names()[i];
  }
  EXPECT_TRUE(cycles_advanced);
  EXPECT_GE(after.time_enabled_ns, before.time_enabled_ns);
}

TEST(HwcMeasured, ServiceAttributesMeasuredMetrics) {
  if (!hwc::cached_probe().available) {
    GTEST_SKIP() << "perf unavailable: " << hwc::cached_probe().reason;
  }
  cali::Channel ch;
  hwc::RegionCounterService svc;
  ASSERT_TRUE(svc.attach(ch)) << svc.reason();
  EXPECT_THROW(svc.attach(ch), cali::AnnotationError);
  ch.begin("kernel");
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1.0;
  ch.end("kernel");
  EXPECT_EQ(svc.regions_observed(), 1u);
  EXPECT_EQ(svc.sample().source, "measured");
  const auto* node = ch.profile().find("kernel");
  ASSERT_NE(node, nullptr);
  EXPECT_GT(node->metrics.at("PAPI_TOT_CYC"), 0.0);
  svc.detach(ch);
}

// ------------------------------------------------ executor degradation

TEST(HwcExecutor, SweepAlwaysYieldsCountersWithProvenance) {
  suite::RunParams params;
  params.kernel_filter = {"Basic_DAXPY"};
  params.variant_filter = {suite::VariantID::Base_Seq};
  params.size_factor = 0.01;
  params.hwc = true;
  suite::Executor exec(params);
  exec.run();

  ASSERT_EQ(exec.results().size(), 1u);
  const suite::RunResult& r = exec.results()[0];
  ASSERT_EQ(r.status, suite::RunStatus::Passed);
  // Measured on PMU hosts, simulated elsewhere — never absent.
  ASSERT_FALSE(r.hwc.empty());
  EXPECT_TRUE(r.hwc.source == "measured" || r.hwc.source == "simulated");
  EXPECT_FALSE(r.hwc.values.empty());
  EXPECT_EQ(exec.hwc_source(), r.hwc.source);
  if (r.hwc.source == "simulated") {
    EXPECT_FALSE(exec.hwc_reason().empty());
  }

  const auto profiles = exec.profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].metadata.at("hwc_source"), r.hwc.source);
  ASSERT_TRUE(profiles[0].metadata.count("hwc_overhead_pct"));
  const cali::ProfileNode* node = profiles[0].find("Basic_DAXPY");
  ASSERT_NE(node, nullptr);
  EXPECT_GT(node->metrics.at("PAPI_TOT_CYC"), 0.0);
}

TEST(HwcExecutor, OffByDefaultAttributesNoCounters) {
  suite::RunParams params;
  params.kernel_filter = {"Basic_DAXPY"};
  params.variant_filter = {suite::VariantID::Base_Seq};
  params.size_factor = 0.01;
  suite::Executor exec(params);
  exec.run();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_TRUE(exec.results()[0].hwc.empty());
  EXPECT_EQ(exec.hwc_source(), "");
  const auto profiles = exec.profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_FALSE(profiles[0].metadata.count("hwc_source"));
}

}  // namespace
