// Tests for the TraceSink tracing service, the traced OpenMP forall path,
// the Chrome/Perfetto exporter, and Channel event-hook observer chaining.
#include <gtest/gtest.h>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "instrument/channel.hpp"
#include "instrument/trace_export.hpp"
#include "instrument/trace_sink.hpp"
#include "port/forall.hpp"

namespace {

using rperf::cali::Channel;
using rperf::cali::ChromeTrace;
using rperf::cali::TraceData;
using rperf::cali::TraceRecord;
using rperf::cali::TraceSink;

void set_threads(int n) {
#if defined(_OPENMP)
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// (path, visit_count) pairs of a channel's region tree, depth-first.
void collect_tree(const Channel& ch, std::vector<std::pair<std::string,
                  std::uint64_t>>& out) {
  ch.profile().for_each(
      [&out](const std::string& path, const rperf::cali::ProfileNode& n) {
        out.emplace_back(path, n.visit_count);
      });
}

/// Run `visits` annotated OpenMP foralls with `threads` threads and return
/// (region tree, trace snapshot).
std::pair<std::vector<std::pair<std::string, std::uint64_t>>, TraceData>
run_traced(int threads, int visits) {
  set_threads(threads);
  TraceSink& sink = TraceSink::instance();
  sink.enable();

  Channel ch;
  std::vector<double> y(1024, 0.0);
  double* yp = y.data();
  for (int v = 0; v < visits; ++v) {
    rperf::cali::ScopedRegion region(ch, "Trace_KERNEL");
    rperf::port::forall<rperf::port::omp_parallel_for_exec>(
        rperf::port::RangeSegment(0, 1024),
        [=](rperf::port::Index_type i) { yp[i] += 1.0; });
  }

  TraceData data = sink.flush();
  sink.disable();
  std::vector<std::pair<std::string, std::uint64_t>> tree;
  collect_tree(ch, tree);
  EXPECT_DOUBLE_EQ(
      std::accumulate(y.begin(), y.end(), 0.0),
      1024.0 * visits);
  return {tree, data};
}

std::size_t count_kind(const TraceData& d, TraceRecord::Kind kind,
                       const std::string& name) {
  std::size_t n = 0;
  for (const TraceRecord& r : d.records) {
    if (r.kind == kind && r.name < d.names.size() &&
        d.names[r.name] == name) {
      ++n;
    }
  }
  return n;
}

TEST(TraceSinkTest, RegionTreesIdenticalAcrossThreadCounts) {
  const auto [tree1, data1] = run_traced(1, 3);
  const auto [tree2, data2] = run_traced(2, 3);
  const auto [tree8, data8] = run_traced(8, 3);
  EXPECT_EQ(tree1, tree2);
  EXPECT_EQ(tree1, tree8);
  ASSERT_EQ(tree1.size(), 1u);
  EXPECT_EQ(tree1[0].first, "Trace_KERNEL");
  EXPECT_EQ(tree1[0].second, 3u);

  // The set of traced region names matches regardless of team width.
  auto span_names = [](const TraceData& d) {
    std::vector<std::string> names;
    for (const TraceRecord& r : d.records) {
      if (r.kind == TraceRecord::Kind::Span) names.push_back(d.names[r.name]);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  EXPECT_EQ(span_names(data1), span_names(data2));
  EXPECT_EQ(span_names(data1), span_names(data8));
}

TEST(TraceSinkTest, ThreadSpanCountsSumToVisitCount) {
  constexpr int kVisits = 4;
  const auto [tree, data] = run_traced(2, kVisits);
  ASSERT_EQ(tree.size(), 1u);
  const std::uint64_t visit_count = tree[0].second;
  ASSERT_EQ(visit_count, static_cast<std::uint64_t>(kVisits));

  // One parallel instance per region visit...
  const auto stats = data.region_stats.find("Trace_KERNEL");
  ASSERT_NE(stats, data.region_stats.end());
  EXPECT_EQ(stats->second.instances, visit_count);
  EXPECT_GE(stats->second.imbalance(), 1.0);

  // ...and per instance, exactly one ThreadSpan per team thread, so the
  // per-thread span count is a whole multiple of visit_count.
  const std::size_t tspans =
      count_kind(data, TraceRecord::Kind::ThreadSpan, "Trace_KERNEL");
  ASSERT_GT(tspans, 0u);
  EXPECT_EQ(tspans % visit_count, 0u);
  const std::size_t team = tspans / visit_count;
  EXPECT_EQ(static_cast<int>(team), stats->second.max_threads);
#if defined(_OPENMP)
  EXPECT_EQ(team, 2u);
#else
  EXPECT_EQ(team, 1u);
#endif
  // Every begin/end visit produced one merged Span record too.
  EXPECT_EQ(count_kind(data, TraceRecord::Kind::Span, "Trace_KERNEL"),
            visit_count);
}

TEST(TraceSinkTest, DisabledSinkRecordsNothing) {
  TraceSink& sink = TraceSink::instance();
  sink.enable();
  (void)sink.flush();
  sink.disable();
  sink.begin(sink.intern("ghost"));
  sink.end();
  sink.thread_span(sink.intern("ghost"), 0.0, 1.0);
  sink.counter(sink.intern("ghost"), 42.0);
  sink.enable();
  const TraceData data = sink.flush();
  sink.disable();
  EXPECT_TRUE(data.records.empty());
}

TEST(TraceSinkTest, OverheadSelfAccountingIsPositiveAndBounded) {
  TraceSink& sink = TraceSink::instance();
  sink.enable();
  for (int i = 0; i < 1000; ++i) {
    sink.begin(sink.intern("ovh"));
    sink.end();
  }
  EXPECT_GE(sink.record_count(), 1000u);
  const TraceData data = sink.flush();
  sink.disable();
  EXPECT_EQ(data.records.size(), 1000u);
  EXPECT_GT(data.overhead_sec, 0.0);
  EXPECT_LT(data.overhead_sec, 1.0);  // 1000 appends cost far under 1 s
}

TEST(ChromeExportTest, ExportParsesWithProcessRowsAndCounters) {
  TraceData main_part;
  main_part.pid = 100;
  main_part.process_name = "rajaperf";
  main_part.names = {"sweep", "cell"};
  main_part.records.push_back(
      TraceRecord{0, 0, TraceRecord::Kind::Span, 0, 0.0, 1.0, 0.0});
  main_part.records.push_back(
      TraceRecord{1, 0, TraceRecord::Kind::Span, 1, 0.1, 0.9, 0.0});
  main_part.records.push_back(
      TraceRecord{1, 0, TraceRecord::Kind::Counter, 0, 0.95, 0.95, 3.0});

  TraceData worker;
  worker.pid = 101;
  worker.process_name = "rperf-worker";
  worker.clock_offset_sec = 0.2;
  worker.names = {"cell"};
  worker.records.push_back(
      TraceRecord{0, 0, TraceRecord::Kind::Span, 0, 0.0, 0.5, 0.0});
  worker.records.push_back(
      TraceRecord{0, 1, TraceRecord::Kind::ThreadSpan, 0, 0.1, 0.4, 0.0});

  const std::string text = rperf::cali::chrome_trace_json(
      {main_part, worker}, {{"trace_overhead_pct", "0.5"}});
  const ChromeTrace trace = rperf::cali::chrome_trace_parse(text);

  EXPECT_EQ(trace.process_count(), 2u);
  EXPECT_EQ(trace.process_names.at(100), "rajaperf");
  EXPECT_EQ(trace.process_names.at(101), "rperf-worker");
  EXPECT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.counter_events, 1u);
  EXPECT_EQ(trace.meta.at("trace_overhead_pct"), "0.5");
  // The worker's clock offset shifted its spans onto the parent timeline.
  double worker_ts = -1.0;
  for (const auto& s : trace.spans) {
    if (s.pid == 101 && s.category == "region") worker_ts = s.ts_us;
  }
  EXPECT_NEAR(worker_ts, 0.2 * 1e6, 1.0);
}

TEST(ChromeExportTest, FoldStacksComputesExclusiveTime) {
  ChromeTrace trace;
  trace.process_names[1] = "rajaperf";
  // parent [0, 100us], child [10us, 40us] -> parent exclusive 70us.
  trace.spans.push_back({1, 0, "parent", "region", 0.0, 100.0});
  trace.spans.push_back({1, 0, "child", "region", 10.0, 30.0});

  std::map<std::string, double> folded;
  for (const auto& line : rperf::cali::fold_stacks(trace)) {
    folded[line.stack] = line.usec;
  }
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_DOUBLE_EQ(folded.at("rajaperf;parent"), 70.0);
  EXPECT_DOUBLE_EQ(folded.at("rajaperf;parent;child"), 30.0);

  const auto top = rperf::cali::top_exclusive(trace, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "parent");
  EXPECT_DOUBLE_EQ(top[0].exclusive_us, 70.0);
  EXPECT_DOUBLE_EQ(top[0].inclusive_us, 100.0);
  EXPECT_EQ(top[1].name, "child");
  EXPECT_DOUBLE_EQ(top[1].exclusive_us, 30.0);
}

TEST(EventHookTest, ObserversChainWithoutClobbering) {
  Channel ch;
  std::vector<std::string> a;
  std::vector<std::string> b;
  const auto record = [](std::vector<std::string>& log) {
    return [&log](const std::string& region, bool is_begin, double) {
      log.push_back((is_begin ? "B:" : "E:") + region);
    };
  };
  const int ida = ch.add_event_hook(record(a));
  const int idb = ch.add_event_hook(record(b));
  EXPECT_EQ(ch.event_hook_count(), 2u);
  {
    rperf::cali::ScopedRegion r(ch, "both");
  }
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);

  // Removing one observer leaves the other recording.
  ch.remove_event_hook(ida);
  EXPECT_EQ(ch.event_hook_count(), 1u);
  {
    rperf::cali::ScopedRegion r(ch, "only-b");
  }
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.back(), "E:only-b");
  ch.remove_event_hook(idb);
  EXPECT_EQ(ch.event_hook_count(), 0u);
}

TEST(TraceSinkTest, CountersLandInFlushedData) {
  TraceSink& sink = TraceSink::instance();
  sink.enable();
  sink.counter(sink.intern("pool_hits"), 7.0);
  sink.counter(sink.intern("pool_hits"), 9.0);
  const TraceData data = sink.flush();
  sink.disable();
  ASSERT_EQ(count_kind(data, TraceRecord::Kind::Counter, "pool_hits"), 2u);
  std::vector<double> values;
  for (const TraceRecord& r : data.records) {
    if (r.kind == TraceRecord::Kind::Counter) values.push_back(r.value);
  }
  EXPECT_EQ(values, (std::vector<double>{7.0, 9.0}));
}

TEST(TraceSinkTest, ThreadSpansCarryDistinctTids) {
#if !defined(_OPENMP)
  GTEST_SKIP() << "needs OpenMP";
#endif
  // Even on one CPU, an explicitly requested team of 2 gets 2 threads
  // (dynamic adjustment is off by default), each with its own tid.
  const auto [tree, data] = run_traced(2, 1);
  std::vector<std::uint32_t> tids;
  for (const TraceRecord& r : data.records) {
    if (r.kind == TraceRecord::Kind::ThreadSpan) tids.push_back(r.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), 2u);
}

}  // namespace
