// Span capture + offline analysis tests: watch filtering, ring-buffer wrap,
// NDJSON escaping round-trips, the FCT-decomposition identity on a real
// dumbbell run (the acceptance property: a sampled flow's completion time
// equals the sum of its span segments), port aggregates, the heatmap CSV,
// and pmsb.profile/1 hotspot ranking / diffing.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"
#include "trace/analysis.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"

using namespace pmsb;
using trace::Span;
using trace::SpanPhase;
using trace::SpanRecord;
using trace::SpanTracer;

namespace {

SpanRecord make_span(sim::TimeNs t, SpanPhase phase, net::FlowId flow,
                     std::uint64_t packet = 1) {
  SpanRecord s;
  s.time = t;
  s.phase = phase;
  s.flow = flow;
  s.packet = packet;
  return s;
}

std::string dump_ndjson(const SpanTracer& spans) {
  const std::string path = ::testing::TempDir() + "/spans_tmp.ndjson";
  spans.write_ndjson(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

}  // namespace

TEST(SpanTracer, OnlyWatchedFlowsAreRecorded) {
  SpanTracer spans;
  spans.watch_flow(7);
  EXPECT_TRUE(spans.wants(7));
  EXPECT_FALSE(spans.wants(8));
  spans.record(make_span(10, SpanPhase::kSend, 7));
  spans.record(make_span(20, SpanPhase::kSend, 8));
  EXPECT_EQ(spans.size(), 1u);
  spans.watch_all();
  spans.record(make_span(30, SpanPhase::kSend, 8));
  EXPECT_EQ(spans.size(), 2u);
}

TEST(SpanTracer, RingWrapKeepsTheTailChronologically) {
  SpanTracer spans(3, trace::OverflowPolicy::kRingBuffer);
  spans.watch_all();
  for (sim::TimeNs t = 1; t <= 5; ++t) {
    spans.record(make_span(t, SpanPhase::kSend, 1, static_cast<std::uint64_t>(t)));
  }
  EXPECT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.overflow(), 2u);
  std::vector<sim::TimeNs> times;
  spans.for_each_chronological(
      [&times](const SpanRecord& s) { times.push_back(s.time); });
  EXPECT_EQ(times, (std::vector<sim::TimeNs>{3, 4, 5}));
  // The NDJSON export follows chronological order too, and parses back.
  const auto parsed = trace::parse_spans_ndjson(dump_ndjson(spans), "ring");
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.front().time, 3);
  EXPECT_EQ(parsed.back().time, 5);
}

TEST(SpanTracer, DropNewestKeepsTheHead) {
  SpanTracer spans(2, trace::OverflowPolicy::kDropNewest);
  spans.watch_all();
  for (sim::TimeNs t = 1; t <= 4; ++t) {
    spans.record(make_span(t, SpanPhase::kSend, 1));
  }
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.overflow(), 2u);
  EXPECT_EQ(spans.records().front().time, 1);
  EXPECT_EQ(spans.records().back().time, 2);
}

TEST(SpanTracer, NdjsonEscapesHostileNodeNamesAndRoundTrips) {
  SpanTracer spans;
  spans.watch_all();
  // Names with every character class the escaper must handle.
  const std::string hostile = "sw\"itch\\one\n\ttab\x01";
  SpanRecord s = make_span(42, SpanPhase::kEnqueue, 3, 99);
  s.node = spans.intern_node(hostile);
  s.queue = 5;
  s.seq = 1460;
  s.size_bytes = 1500;
  s.marked = true;
  spans.record(s);
  const std::string text = dump_ndjson(spans);
  const auto parsed = trace::parse_spans_ndjson(text, "escape-test");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].node, hostile);
  EXPECT_EQ(parsed[0].phase, SpanPhase::kEnqueue);
  EXPECT_EQ(parsed[0].flow, 3u);
  EXPECT_EQ(parsed[0].packet, 99u);
  EXPECT_EQ(parsed[0].queue, 5u);
  EXPECT_EQ(parsed[0].seq, 1460u);
  EXPECT_EQ(parsed[0].size_bytes, 1500u);
  EXPECT_TRUE(parsed[0].marked);
  EXPECT_FALSE(parsed[0].retransmit);
}

TEST(Analysis, MalformedSpanLinesThrowWithLineNumber) {
  EXPECT_THROW(trace::parse_spans_ndjson("{\"t_ns\": }\n", "bad"),
               std::runtime_error);
  // Blank lines are tolerated (trailing newline from the writer).
  EXPECT_TRUE(trace::parse_spans_ndjson("\n\n", "blank").empty());
}

TEST(Analysis, FlowBreakdownTelescopesExactly) {
  // Hand-built lifecycle: send 0 -> enqueue 10 -> mark 10 -> dequeue 30 ->
  // link_tx 40 -> rx 45 -> ack 60. Each gap belongs to the phase opening it.
  std::vector<Span> spans;
  auto add = [&spans](sim::TimeNs t, SpanPhase ph) {
    Span s;
    s.time = t;
    s.phase = ph;
    s.flow = 1;
    s.packet = 1;
    spans.push_back(s);
  };
  add(0, SpanPhase::kSend);
  add(10, SpanPhase::kEnqueue);
  add(10, SpanPhase::kMark);
  add(30, SpanPhase::kDequeue);
  add(40, SpanPhase::kLinkTx);
  add(45, SpanPhase::kRx);
  add(60, SpanPhase::kAck);
  const auto b = trace::analyze_flow(spans, 1);
  EXPECT_EQ(b.start_ns, 0);
  EXPECT_EQ(b.end_ns, 60);
  EXPECT_EQ(b.by_component.at("sender"), 10);         // send 0 -> enqueue 10
  EXPECT_EQ(b.by_component.at("queueing"), 20);       // enqueue+mark -> dequeue
  EXPECT_EQ(b.by_component.at("serialization"), 10);  // dequeue -> link_tx
  EXPECT_EQ(b.by_component.at("propagation"), 5);     // link_tx -> rx
  EXPECT_EQ(b.by_component.at("receiver"), 15);       // rx -> ack
  EXPECT_EQ(b.marks, 1u);
  const sim::TimeNs total = std::accumulate(
      b.by_component.begin(), b.by_component.end(), sim::TimeNs{0},
      [](sim::TimeNs acc, const auto& kv) { return acc + kv.second; });
  EXPECT_EQ(total, b.end_ns - b.start_ns);
  EXPECT_THROW(trace::analyze_flow(spans, 99), std::runtime_error);
}

TEST(Analysis, DumbbellFlowFctEqualsSumOfSpanSegments) {
  // The acceptance property, end to end: run a real finite flow with span
  // capture and check its measured FCT decomposes exactly.
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  experiments::DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 300'000});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 0});  // competing traffic
  SpanTracer spans;
  spans.watch_flow(1);
  sc.install_span_tracer(spans);
  sc.run(sim::milliseconds(100));
  ASSERT_TRUE(sc.flow(0).sender().complete());

  const std::string path = ::testing::TempDir() + "/dumbbell_spans.ndjson";
  spans.write_ndjson(path);
  const auto parsed = trace::read_spans_ndjson(path);
  std::remove(path.c_str());
  EXPECT_EQ(trace::flows_in(parsed), std::vector<net::FlowId>{1});

  const auto b = trace::analyze_flow(parsed, 1);
  const sim::TimeNs fct =
      sc.flow(0).sender().completion_time() - sc.flow(0).sender().start_time();
  // First span is the initial kSend at start_time, last is the final kAck at
  // completion_time, so the telescoped components must sum to the FCT.
  EXPECT_EQ(b.timeline.front().phase, SpanPhase::kSend);
  EXPECT_EQ(b.timeline.back().phase, SpanPhase::kAck);
  EXPECT_EQ(b.end_ns - b.start_ns, fct);
  const sim::TimeNs total = std::accumulate(
      b.by_component.begin(), b.by_component.end(), sim::TimeNs{0},
      [](sim::TimeNs acc, const auto& kv) { return acc + kv.second; });
  EXPECT_EQ(total, fct);
  // The run crosses a 10 Gbps bottleneck against competing traffic, so the
  // decomposition must show real queueing and serialization time.
  EXPECT_GT(b.by_component.at("queueing"), 0);
  EXPECT_GT(b.by_component.at("serialization"), 0);
  EXPECT_GT(b.by_component.at("propagation"), 0);
  EXPECT_GT(b.packets, 0u);
}

TEST(Analysis, PortReportAggregatesOccupancyAndMarkLatency) {
  // enqueue@0 (6000 B) -> mark@10 -> dequeue@10; enqueue@10 holds 3000 B for
  // 90 us of the 100 us window.
  const std::string text =
      "{\"t_us\": 0.0, \"event\": \"enqueue\", \"packet\": 1, \"flow\": 1, "
      "\"queue\": 0, \"port_bytes\": 6000}\n"
      "{\"t_us\": 10.0, \"event\": \"mark\", \"packet\": 1, \"flow\": 1, "
      "\"queue\": 0, \"port_bytes\": 6000}\n"
      "{\"t_us\": 10.0, \"event\": \"dequeue\", \"packet\": 1, \"flow\": 1, "
      "\"queue\": 0, \"port_bytes\": 3000}\n"
      "{\"t_us\": 10.0, \"event\": \"enqueue\", \"packet\": 2, \"flow\": 2, "
      "\"queue\": 1, \"port_bytes\": 3000}\n"
      "{\"t_us\": 100.0, \"event\": \"dequeue\", \"packet\": 2, \"flow\": 2, "
      "\"queue\": 1, \"port_bytes\": 0}\n";
  const auto events = trace::parse_trace_ndjson(text, "port-test");
  ASSERT_EQ(events.size(), 5u);
  const auto r = trace::analyze_port(events);
  EXPECT_DOUBLE_EQ(r.duration_us, 100.0);
  EXPECT_EQ(r.event_counts.at("enqueue"), 2u);
  EXPECT_EQ(r.event_counts.at("mark"), 1u);
  EXPECT_EQ(r.occupancy_max, 6000u);
  // 3000 B held for 90 of 100 us -> the median occupancy.
  EXPECT_DOUBLE_EQ(r.occupancy_p50, 3000.0);
  EXPECT_EQ(r.marked_packets, 1u);
  EXPECT_DOUBLE_EQ(r.mark_latency_max_us, 10.0);
}

TEST(Analysis, HeatmapBucketsEnqueuesPerQueue) {
  const std::string text =
      "{\"t_us\": 1.0, \"event\": \"enqueue\", \"packet\": 1, \"flow\": 1, "
      "\"queue\": 0, \"port_bytes\": 0}\n"
      "{\"t_us\": 2.0, \"event\": \"enqueue\", \"packet\": 2, \"flow\": 1, "
      "\"queue\": 1, \"port_bytes\": 0}\n"
      "{\"t_us\": 12.0, \"event\": \"enqueue\", \"packet\": 3, \"flow\": 1, "
      "\"queue\": 1, \"port_bytes\": 0}\n";
  const auto events = trace::parse_trace_ndjson(text, "heatmap-test");
  const std::string csv = trace::port_heatmap_csv(events, 10.0);
  std::stringstream ss(csv);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "time_us,q0,q1");
  std::getline(ss, line);
  EXPECT_EQ(line.substr(line.find(',') + 1), "1,1");
  std::getline(ss, line);
  EXPECT_EQ(line.substr(line.find(',') + 1), "0,1");
}

TEST(Analysis, HeatmapTimeColumnRoundTripsToTheNanosecond) {
  // Events from 1000.003 us on: bucket starts need seven or more digits.
  const std::string text =
      "{\"t_us\": 1000.003, \"event\": \"enqueue\", \"packet\": 1, \"flow\": 1, "
      "\"queue\": 0, \"port_bytes\": 0}\n"
      "{\"t_us\": 1250.5, \"event\": \"enqueue\", \"packet\": 2, \"flow\": 1, "
      "\"queue\": 0, \"port_bytes\": 0}\n";
  const auto events = trace::parse_trace_ndjson(text, "heatmap-exact");
  std::stringstream ss(trace::port_heatmap_csv(events, 100.0));
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "time_us,q0");
  std::vector<long long> starts_ns;
  while (std::getline(ss, line)) {
    starts_ns.push_back(std::llround(std::stod(line.substr(0, line.find(','))) * 1000.0));
  }
  EXPECT_EQ(starts_ns, (std::vector<long long>{1'000'003, 1'200'003}));
}

TEST(Analysis, ProfileHotspotsRankBySelfTimeAndDiffsCompare) {
  telemetry::Profiler p;
  const auto hot = p.intern("hot");
  const auto cold = p.intern("cold");
  {
    telemetry::ProfileScope s(&p, hot);
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::microseconds(300);
    while (std::chrono::steady_clock::now() < end) {
    }
  }
  {
    telemetry::ProfileScope s(&p, cold);
  }
  const auto doc = trace::parse_profile(p.to_json(), "profile-test");
  const auto top = trace::top_hotspots(doc, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].name, "hot");
  EXPECT_EQ(top[0].count, 1u);
  EXPECT_GT(top[0].self_wall_ns, 0u);

  // Diff against a doc where only "cold" exists: union of names, deltas.
  telemetry::Profiler q;
  {
    telemetry::ProfileScope s(&q, q.intern("cold"));
  }
  const auto after = trace::parse_profile(q.to_json(), "profile-test-b");
  const auto diff = trace::diff_profiles(doc, after);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0].name, "hot");  // biggest |self delta| first
  EXPECT_EQ(diff[0].self_b, 0u);
  EXPECT_EQ(diff[1].name, "cold");
  EXPECT_EQ(diff[1].count_a, 1u);
  EXPECT_EQ(diff[1].count_b, 1u);
}

TEST(Analysis, ParseProfileUnwrapsRunManifests) {
  telemetry::Profiler p;
  {
    telemetry::ProfileScope s(&p, p.intern("x"));
  }
  telemetry::RunManifest manifest("test");
  manifest.set_profile_json(p.to_json());
  const std::string path = ::testing::TempDir() + "/manifest_for_trace.json";
  manifest.write(path, nullptr);
  const auto doc = trace::read_profile(path);
  std::remove(path.c_str());
  ASSERT_EQ(doc.scopes.size(), 1u);
  EXPECT_EQ(doc.scopes[0].name, "x");
  EXPECT_EQ(doc.scopes[0].count, 1u);
}

TEST(Analysis, RejectsNonProfileDocuments) {
  EXPECT_THROW(trace::parse_profile("{\"schema\": \"pmsb.baseline/1\"}", "wrong"),
               std::runtime_error);
}
