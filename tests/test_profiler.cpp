// Profiler contract tests: scope attribution (self vs total across nesting),
// zero-cost-when-off, kernel hook counters, pmsb.profile/1 byte-stable
// round-trip through telemetry::json, manifest splicing, rusage capture, and
// — the property everything else hangs on — that attaching a profiler never
// perturbs a run's digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "regress/digest.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/process_stats.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"
#include "trace/spans.hpp"

using namespace pmsb;
using telemetry::ProfileScope;
using telemetry::Profiler;

namespace {

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

experiments::DumbbellConfig small_config() {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  return cfg;
}

/// The small dumbbell's digest, optionally with the profiler and with the
/// span capture and port capture of `trace_flows=all trace_ndjson=`, which
/// share the digest's tap lists on the bottleneck port, its link and the
/// senders.
std::string run_digest_hex(bool with_profiler, bool with_tracers = false) {
  experiments::DumbbellScenario sc(small_config());
  sc.add_flow({.sender = 0, .service = 0, .bytes = 200'000});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 200'000});
  regress::RunDigest digest;
  sc.install_digest(digest);
  Profiler profiler;
  if (with_profiler) sc.install_profiler(profiler);
  trace::SpanTracer spans;
  trace::SpanTracer port_capture(1'000'000, trace::OverflowPolicy::kRingBuffer);
  if (with_tracers) {
    spans.watch_all();
    sc.install_span_tracer(spans);
    port_capture.watch_all();
    const experiments::TracePort port = sc.trace_port();
    port.port.add_observer(&port_capture, port_capture.intern_node(port.node));
  }
  sc.run(sim::milliseconds(50));
  if (with_tracers) {
    EXPECT_GT(spans.size(), 0u);
    EXPECT_GT(port_capture.size(), 0u);
  }
  sc.finalize_digest();
  return digest.total().hex();
}

}  // namespace

TEST(Profiler, ScopesAttributeSelfAndTotalTime) {
  Profiler p;
  const auto outer = p.intern("outer");
  const auto inner = p.intern("inner");
  {
    ProfileScope a(&p, outer);
    spin_for(std::chrono::microseconds(200));
    {
      ProfileScope b(&p, inner);
      spin_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_EQ(p.count(outer), 1u);
  EXPECT_EQ(p.count(inner), 1u);
  // The inner scope's time counts toward outer's total but not its self.
  EXPECT_GE(p.total_wall_ns(inner), 100'000u);
  EXPECT_GE(p.total_wall_ns(outer), p.total_wall_ns(inner));
  EXPECT_LE(p.self_wall_ns(outer) + p.self_wall_ns(inner), p.total_wall_ns(outer));
  EXPECT_EQ(p.self_wall_ns(inner), p.total_wall_ns(inner));
}

TEST(Profiler, InternIsIdempotentAndNamesStick) {
  Profiler p;
  const auto a = p.intern("sched.DWRR.enqueue");
  EXPECT_EQ(p.intern("sched.DWRR.enqueue"), a);
  EXPECT_EQ(p.kind_name(a), "sched.DWRR.enqueue");
  EXPECT_EQ(p.num_kinds(), 1u);
}

TEST(Profiler, NullProfilerScopeIsANoOp) {
  // The off state of the cost contract: must not crash or allocate.
  ProfileScope scope(nullptr, 0);
  SUCCEED();
}

TEST(Profiler, UnbalancedScopeEndThrows) {
  Profiler p;
  EXPECT_THROW(p.scope_end(), std::logic_error);
}

TEST(Profiler, KernelHookCountsDispatchesAndChurn) {
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i * 100, [&fired] { ++fired; });
  {
    sim::Timer doomed(sim, [](void*) {}, nullptr);
    doomed.arm(5'000, sim.reserve_seq());
  }  // destroyed while armed: one cancel
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(p.dispatches(), sim.executed_events());
  EXPECT_EQ(p.events_scheduled(), 11u);
  EXPECT_EQ(p.events_cancelled(), 1u);
  // Every dispatch contributes one sim-time-delta observation.
  EXPECT_EQ(p.sim_delta_ns().count(), p.dispatches());
  p.detach();
  sim.schedule_at(10'000, [] {});
  sim.run();
  EXPECT_EQ(p.events_scheduled(), 11u) << "detached profiler must stop counting";
}

TEST(Profiler, AttachIsExclusiveAndDetachesOnDestruction) {
  sim::Simulator sim;
  {
    Profiler p;
    p.attach(sim);
    EXPECT_EQ(sim.dispatch_hook(), &p);
  }
  EXPECT_EQ(sim.dispatch_hook(), nullptr);
}

TEST(Profiler, ProfileJsonRoundTripsByteStablyThroughJsonReader) {
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  const auto kind = p.intern("component.\"quoted\"\n");  // escaping matters
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(i * 1000, [&p, kind] { ProfileScope s(&p, kind); });
  }
  sim.run();
  const std::string doc = p.to_json();
  // pmsb.profile/1 emits keys sorted at every level, so parsing and
  // re-serializing through telemetry::json must reproduce the exact bytes.
  EXPECT_EQ(telemetry::json::to_json(telemetry::json::parse(doc)), doc);
  const auto v = telemetry::json::parse(doc);
  EXPECT_EQ(v.at("schema").string, "pmsb.profile/1");
  EXPECT_EQ(static_cast<std::uint64_t>(v.at("kernel").at("dispatches").number),
            p.dispatches());
  EXPECT_EQ(v.at("scopes").array.size(), 1u);
}

TEST(Profiler, StaysBalancedWhenDispatchThrows) {
  // Regression for the unwind path: the kernel must call end_dispatch even
  // when the callback throws, or the profiler's begin/end pairing breaks and
  // every later scope misattributes its parent.
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  sim.schedule_at(1'000, [] {
    spin_for(std::chrono::microseconds(200));
    throw std::runtime_error("mid-dispatch failure");
  });
  sim.schedule_at(2'000, [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
  // end_dispatch provably ran: the dispatch was counted and its wall time
  // (including the spin before the throw) was accumulated.
  EXPECT_EQ(p.dispatches(), 1u);
  EXPECT_GE(p.dispatch_wall_ns(), 100'000u);
  // The profiler is still coherent: the survivor dispatches and counts.
  sim.run();
  EXPECT_EQ(p.dispatches(), 2u);
  EXPECT_EQ(p.sim_delta_ns().count(), 2u);
  const auto v = telemetry::json::parse(p.to_json());
  EXPECT_EQ(v.at("kernel").at("dispatches").number, 2.0);
}

TEST(Profiler, ReportsQueueBackendAndCompactions) {
  sim::Simulator sim(sim::QueueBackend::kCalendar);
  Profiler p;
  p.attach(sim);
  // Destroy-and-re-arm churn deep enough to trip the tombstone compactor.
  auto timer = std::make_unique<sim::Timer>(sim, [](void*) {}, nullptr);
  timer->arm(1'000'000, sim.reserve_seq());
  for (int i = 1; i <= 500; ++i) {
    timer = std::make_unique<sim::Timer>(sim, [](void*) {}, nullptr);
    timer->arm(1'000'000 + i, sim.reserve_seq());
  }
  sim.run();
  const auto v = telemetry::json::parse(p.to_json());
  EXPECT_EQ(v.at("kernel").at("queue_backend").string, "calendar");
  EXPECT_EQ(
      static_cast<std::uint64_t>(v.at("kernel").at("queue_compactions").number),
      sim.queue_compactions());
  EXPECT_GT(sim.queue_compactions(), 0u);
}

TEST(Profiler, AttachingNeverPerturbsTheRunDigest) {
  // The observability plane's prime directive: profile=1 must not change
  // what the simulation computes, only observe it — and neither may the
  // other observers sharing the digest's tap lists.
  const std::string plain = run_digest_hex(false);
  EXPECT_EQ(plain, run_digest_hex(true));
  EXPECT_EQ(plain, run_digest_hex(false, /*with_tracers=*/true));
  EXPECT_EQ(plain, run_digest_hex(true, /*with_tracers=*/true));
}

TEST(Profiler, DumbbellScopesCoverPortSchedulerEcnAndTransport) {
  experiments::DumbbellScenario sc(small_config());
  sc.add_flow({.sender = 0, .service = 0, .bytes = 100'000});
  Profiler p;
  sc.install_profiler(p);
  sc.run(sim::milliseconds(20));
  const auto v = telemetry::json::parse(p.to_json());
  std::vector<std::string> names;
  for (const auto& s : v.at("scopes").array) {
    names.push_back(s.at("name").string);
    EXPECT_GT(s.at("count").number, 0.0) << names.back();
    EXPECT_GE(s.at("total_wall_ns").number, s.at("self_wall_ns").number)
        << names.back();
  }
  auto has = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("port.handle"));
  EXPECT_TRUE(has("port.transmit"));
  EXPECT_TRUE(has("sched.DWRR.enqueue"));
  EXPECT_TRUE(has("sched.DWRR.dequeue"));
  EXPECT_TRUE(has("ecn.PMSB.should_mark"));
  EXPECT_TRUE(has("transport.send"));
  EXPECT_TRUE(has("transport.ack"));
  EXPECT_GT(v.at("kernel").at("dispatches").number, 0.0);
  EXPECT_GT(v.at("kernel").at("max_heap_depth").number, 0.0);
}

TEST(Profiler, ManifestSplicesProfileVerbatimAndReaderTolerates) {
  Profiler p;
  {
    ProfileScope s(&p, p.intern("x"));
  }
  telemetry::RunManifest manifest("test");
  manifest.set_profile_json(p.to_json());
  const std::string path = ::testing::TempDir() + "/manifest_profile.json";
  manifest.write(path, nullptr);

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = telemetry::json::parse(ss.str());
  ASSERT_NE(doc.find("profile"), nullptr);
  EXPECT_EQ(telemetry::json::to_json(*doc.find("profile")), p.to_json());
  // The rest of a manifest that carries a profile still reads.
  EXPECT_EQ(doc.at("tool").string, "test");
  EXPECT_EQ(doc.at("schema").string, "pmsb.run_manifest/1");
  std::remove(path.c_str());
}

TEST(ProcessStats, UsageFieldsArePlausible) {
  spin_for(std::chrono::microseconds(500));
  const telemetry::ProcessUsage u = telemetry::process_usage();
  EXPECT_GE(u.utime_s + u.stime_s, 0.0);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(u.utime_s + u.stime_s, 0.0);
#endif
}

TEST(ProcessStats, ManifestCarriesUsageAndReaderParsesIt) {
  telemetry::RunManifest manifest("test");
  const std::string path = ::testing::TempDir() + "/manifest_usage.json";
  manifest.write(path, nullptr);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = telemetry::json::parse(ss.str());
  EXPECT_GE(doc.at("utime_s").number, 0.0);
  EXPECT_GE(doc.at("stime_s").number, 0.0);
  EXPECT_GE(doc.at("major_page_faults").number, 0.0);
  std::remove(path.c_str());
}
