// Fault-plane tests: spec grammar, fault plan installation (flaps, loss,
// bleaching), invariant checking, watchdog stall/explosion detection, and
// the sweep-level behavior (a broken cell fails in isolation with a
// structured diagnostic).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/watchdog.hpp"
#include "net/fault_injector.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/packet_store.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/metrics.hpp"
#include "test_demux.hpp"
#include "workload/coflow.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

using namespace pmsb;
using namespace pmsb::net;
using namespace pmsb::faults;

namespace {

Packet make_packet(FlowId flow, HostId dst, bool ce = false) {
  Packet p;
  p.flow_id = flow;
  p.dst = dst;
  p.ce = ce;
  return p;
}

/// A packet in its own store node, as a wire hands it to an injector.
PacketNodePtr make_node(FlowId flow, HostId dst) {
  return PacketStore::local().acquire(make_packet(flow, dst));
}

/// Two hosts, one bidirectional link pair, named refs for the fault plane.
struct PlanPair {
  sim::Simulator sim;
  Host a{sim, 0, "a"};
  Host b{sim, 1, "b"};
  Link ab{sim, sim::gbps(10), sim::microseconds(2), &b};
  Link ba{sim, sim::gbps(10), sim::microseconds(2), &a};
  std::vector<LinkRef> refs{{"a", "b", &ab}, {"b", "a", &ba}};
  test::TestDemux demux{&a, &b};

  PlanPair() {
    a.attach_uplink(&ab);
    b.attach_uplink(&ba);
  }
};

}  // namespace

// ---------------------------------------------------------------- grammar

TEST(FaultSpecGrammar, ParsesFullCombinedSpec) {
  const auto specs = parse_fault_spec(
      "link:leaf0-spine1:down@50ms..80ms;loss:h2->:0.001;"
      "delay:*->h0:10us+5us;bleach:spine0:0.05");
  ASSERT_EQ(specs.size(), 4u);

  EXPECT_EQ(specs[0].kind, FaultSpec::Kind::kLinkFlap);
  EXPECT_EQ(specs[0].a, "leaf0");
  EXPECT_EQ(specs[0].b, "spine1");
  EXPECT_EQ(specs[0].down_at, sim::milliseconds(50));
  EXPECT_EQ(specs[0].up_at, sim::milliseconds(80));

  EXPECT_EQ(specs[1].kind, FaultSpec::Kind::kLoss);
  EXPECT_EQ(specs[1].a, "h2");
  EXPECT_EQ(specs[1].b, "*");  // empty destination = wildcard
  EXPECT_DOUBLE_EQ(specs[1].probability, 0.001);

  EXPECT_EQ(specs[2].kind, FaultSpec::Kind::kDelay);
  EXPECT_EQ(specs[2].a, "*");
  EXPECT_EQ(specs[2].b, "h0");
  EXPECT_EQ(specs[2].delay, sim::microseconds(10));
  EXPECT_EQ(specs[2].jitter, sim::microseconds(5));

  EXPECT_EQ(specs[3].kind, FaultSpec::Kind::kBleach);
  EXPECT_EQ(specs[3].a, "spine0");
  EXPECT_DOUBLE_EQ(specs[3].probability, 0.05);
}

TEST(FaultSpecGrammar, FlapWithoutUpTimeStaysDownForever) {
  const auto specs = parse_fault_spec("link:a-b:down@1ms..");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].down_at, sim::milliseconds(1));
  EXPECT_EQ(specs[0].up_at, sim::kTimeNever);
}

TEST(FaultSpecGrammar, RejectsMalformedClauses) {
  EXPECT_THROW(parse_fault_spec("warp:a->b:0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("loss:a->b:1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("loss:a->b:zebra"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("loss:ab:0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("link:*-b:down@1ms..2ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("link:a-b:down@2ms..1ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("link:a-b:up@1ms"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("delay:a->b:10lightyears"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("loss:a->b"), std::invalid_argument);
}

TEST(FaultSpecGrammar, DurationUnits) {
  EXPECT_EQ(sim::parse_duration_ns("250"), 250);
  EXPECT_EQ(sim::parse_duration_ns("250ns"), 250);
  EXPECT_EQ(sim::parse_duration_ns("3us"), sim::microseconds(3));
  EXPECT_EQ(sim::parse_duration_ns("50ms"), sim::milliseconds(50));
  EXPECT_EQ(sim::parse_duration_ns("2s"), sim::seconds(2));
  EXPECT_EQ(sim::parse_duration_ns("1.5us"), 1500);
  EXPECT_THROW(sim::parse_duration_ns("fast"), std::invalid_argument);
  EXPECT_THROW(sim::parse_duration_ns("10fortnights"), std::invalid_argument);
}

// --------------------------------------------------------------- FaultPlan

TEST(FaultPlan, LinkFlapDropsInFlightAndDeliversAfterRecovery) {
  PlanPair net;
  FaultPlan plan;
  plan.add_spec_string("link:a-b:down@10us..100us");
  plan.install(net.sim, net.refs);
  ASSERT_EQ(plan.num_points(), 2u);  // both directions interposed

  net.demux.take(1);
  // Sent before the flap but still in flight (serialization + 2us
  // propagation) when the link goes down at 10us: dropped and counted.
  net.sim.schedule_at(sim::microseconds(9), [&] { net.a.send(make_packet(1, 1)); });
  // Sent while down: dropped.
  net.sim.schedule_at(sim::microseconds(50), [&] { net.a.send(make_packet(1, 1)); });
  // Sent after recovery: delivered.
  net.sim.schedule_at(sim::microseconds(150), [&] { net.a.send(make_packet(1, 1)); });
  net.sim.run();

  EXPECT_EQ(net.demux.taken(net.b, 1).size(), 1u);
  EXPECT_EQ(plan.dropped(), 2u);
  auto* point = plan.point_between("a", "b");
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(point->counters().dropped_down, 2u);
  EXPECT_FALSE(point->is_down());  // back up after 100us
}

TEST(FaultPlan, LossIsDirectional) {
  PlanPair net;
  FaultPlan plan;
  plan.add_spec_string("loss:a->*:1.0");
  plan.install(net.sim, net.refs);
  ASSERT_EQ(plan.num_points(), 1u);  // only a's egress matched

  net.demux.take(1);
  net.demux.take(2);
  net.sim.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) net.a.send(make_packet(1, 1));
    for (int i = 0; i < 5; ++i) net.b.send(make_packet(2, 0));
  });
  net.sim.run();

  EXPECT_EQ(net.demux.taken(net.b, 1).size(), 0u);  // a -> b all lost
  EXPECT_EQ(net.demux.taken(net.a, 2).size(), 5u);  // b -> a untouched
  EXPECT_EQ(plan.dropped(), 5u);
}

TEST(FaultPlan, BleachClearsCeMarksButDeliversPackets) {
  PlanPair net;
  FaultPlan plan;
  plan.add_spec_string("bleach:a:1.0");
  plan.install(net.sim, net.refs);

  net.demux.take(1);
  net.sim.schedule_at(0, [&] {
    for (int i = 0; i < 10; ++i) net.a.send(make_packet(1, 1, /*ce=*/true));
  });
  net.sim.run();

  const std::vector<Packet> got = net.demux.taken(net.b, 1);
  EXPECT_EQ(got.size(), 10u);  // bleaching never drops
  for (const Packet& p : got) EXPECT_FALSE(p.ce);  // every CE mark cleared
  EXPECT_EQ(plan.bleached(), 10u);
  EXPECT_EQ(plan.forwarded(), 10u);
}

TEST(FaultPlan, MultipleSpecsOnOneLinkShareOneInjector) {
  PlanPair net;
  FaultPlan plan;
  plan.add_spec_string("loss:a->b:0.5;delay:a->b:10us;bleach:a:0.1");
  plan.install(net.sim, net.refs);
  EXPECT_EQ(plan.num_points(), 1u);
}

TEST(FaultPlan, SpecMatchingNoLinkThrows) {
  PlanPair net;
  FaultPlan plan;
  plan.add_spec_string("loss:zebra->*:0.5");
  EXPECT_THROW(plan.install(net.sim, net.refs), std::invalid_argument);
}

TEST(FaultPlan, BindMetricsExportsDropReasonLabels) {
  PlanPair net;
  FaultPlan plan;
  plan.add_spec_string("loss:a->b:1.0");
  plan.install(net.sim, net.refs);

  telemetry::MetricsRegistry registry;
  plan.bind_metrics(registry);
  const telemetry::Labels link{{"link", "a->b"}};
  for (const char* reason : {"counted", "loss", "link_down"}) {
    telemetry::Labels with_reason = link;
    with_reason.emplace_back("reason", reason);
    EXPECT_TRUE(registry.has("faults.dropped", with_reason)) << reason;
  }
  EXPECT_TRUE(registry.has("faults.bleached", link));
  EXPECT_TRUE(registry.has("faults.forwarded", link));
  EXPECT_TRUE(registry.has("faults.delayed_in_flight", link));

  net.sim.schedule_at(0, [&] {
    for (int i = 0; i < 4; ++i) net.a.send(make_packet(1, 1));
  });
  net.sim.run();
  telemetry::Labels loss_labels = link;
  loss_labels.emplace_back("reason", "loss");
  EXPECT_DOUBLE_EQ(registry.value("faults.dropped", loss_labels), 4.0);
}

// ------------------------------------------------------------- invariants

TEST(InvariantChecker, ViolationCarriesEntityAndTime) {
  sim::Simulator sim;
  InvariantChecker checker(sim);
  checker.add_check("always_fails", [](InvariantChecker::Context& ctx) {
    ctx.violate("widget 7", "expected 3, got 5");
  });
  sim.schedule_at(sim::microseconds(42), [&] { checker.check_now(); });
  sim.run();

  ASSERT_EQ(checker.violations().size(), 1u);
  const Violation& v = checker.violations()[0];
  EXPECT_EQ(v.check, "always_fails");
  EXPECT_EQ(v.entity, "widget 7");
  EXPECT_EQ(v.time, sim::microseconds(42));
  EXPECT_NE(v.detail.find("expected 3"), std::string::npos);
  EXPECT_NE(checker.summary().find("widget 7"), std::string::npos);
  EXPECT_NE(checker.summary().find("always_fails"), std::string::npos);
}

/// The run guard's budgets for the checker's tick tests: none (the checker
/// alone arms the guard), and a wall budget that never trips, as
/// `cell_timeout_s=600` arms. Each ticks the checker through the same one
/// guard tick.
const std::pair<const char*, WatchdogConfig> kGuards[] = {
    {"checker alone", {}},
    {"with a wall budget", {.wall_budget_s = 600.0}},
};

TEST(InvariantChecker, PeriodicTickStopsWhenQueueDrains) {
  for (const auto& [name, cfg] : kGuards) {
    SCOPED_TRACE(name);
    sim::Simulator sim;
    InvariantChecker checker(sim);
    checker.add_check("clean", [](InvariantChecker::Context&) {});
    Watchdog guard(sim, &checker, cfg);
    // Keep the sim busy for 1 ms, then nothing: the ticks must end at the
    // drain even though the guard re-arms itself while other events are
    // pending.
    for (int i = 1; i <= 10; ++i) {
      sim.schedule_at(sim::microseconds(100 * static_cast<std::int64_t>(i)), [] {});
    }
    sim.run(sim::seconds(1));
    EXPECT_TRUE(checker.clean());
    EXPECT_GE(checker.evaluations(), 10u);
    // Ten events and ten ticks, the last at 1 ms: none after the drain.
    EXPECT_EQ(sim.executed_events(), 20u);
  }
}

TEST(InvariantChecker, RecordingCapsButKeepsCounting) {
  sim::Simulator sim;
  InvariantChecker checker(sim);
  checker.add_check("noisy", [](InvariantChecker::Context& ctx) {
    ctx.violate("x", "boom");
  });
  for (int i = 0; i < 70; ++i) checker.check_now();
  EXPECT_EQ(checker.violations().size(), 64u);
  EXPECT_EQ(checker.total_violations(), 70u);
  // The summary shows its first 8 lines and counts the other 62.
  EXPECT_NE(checker.summary().find("and 62 more"), std::string::npos);
}

TEST(InvariantChecker, IdleTicksCountWithoutWalking) {
  // Ticks every 100 us to 1 ms; other events only at 250 us and 1 ms. A tick
  // after which nothing else ran counts its evaluation without running the
  // checks; the final check_now() always runs them. A wall budget on the
  // guard adds no event, so its ticks are idle as often.
  for (const auto& [name, cfg] : kGuards) {
    SCOPED_TRACE(name);
    sim::Simulator sim;
    InvariantChecker checker(sim);
    int walks = 0;
    checker.add_check("counted", [&walks](InvariantChecker::Context&) { ++walks; });
    sim.schedule_at(sim::microseconds(250), [] {});
    sim.schedule_at(sim::milliseconds(1), [] {});
    Watchdog guard(sim, &checker, cfg);
    sim.run(sim::seconds(1));
    EXPECT_EQ(checker.evaluations(), 10u);
    EXPECT_EQ(walks, 3);  // the first tick, and the ticks after 250 us and 1 ms
    checker.check_now();
    EXPECT_EQ(checker.evaluations(), 11u);
    EXPECT_EQ(walks, 4);
  }
}

TEST(InvariantChecker, ViolationIntroducedBetweenTicksIsReportedAtTheNextTick) {
  sim::Simulator sim;
  InvariantChecker checker(sim);
  bool broken = false;
  int walks = 0;
  checker.add_check("flag", [&broken, &walks](InvariantChecker::Context& ctx) {
    ++walks;
    if (broken) ctx.violate("flag", "set");
  });
  sim.schedule_at(sim::microseconds(250), [&broken] { broken = true; });
  sim.schedule_at(sim::milliseconds(1), [] {});
  Watchdog guard(sim, &checker);
  sim.run();
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].time, sim::microseconds(300));
  // A walk that found a violation is never skipped: every tick from 300 us
  // on reports it again.
  EXPECT_EQ(checker.total_violations(), 8u);
  EXPECT_EQ(checker.evaluations(), 10u);
  EXPECT_EQ(walks, 9);  // all but the idle tick at 200 us
}

TEST(InvariantChecker, HandedOutPacketIdWakesTheNextTick) {
  // A packet id handed out between two ticks, even outside any event, is a
  // change the next tick must look at.
  sim::Simulator sim;
  InvariantChecker checker(sim);
  int walks = 0;
  checker.add_check("counted", [&walks](InvariantChecker::Context&) { ++walks; });
  sim.schedule_at(sim::milliseconds(1), [] {});
  Watchdog guard(sim, &checker);
  sim.run(sim::microseconds(250));
  EXPECT_EQ(walks, 1);  // 100 us walks, 200 us is idle
  (void)sim.allocate_packet_id();
  sim.run(sim::microseconds(450));
  EXPECT_EQ(walks, 2);  // 300 us walks, 400 us is idle
  EXPECT_EQ(checker.evaluations(), 4u);
}

// --------------------------------------------------------------- watchdog

namespace {

/// Keeps the event queue non-empty forever (50us self-rescheduling tick).
void keep_alive(sim::Simulator& sim, std::uint64_t* counter) {
  sim.schedule_in(sim::microseconds(50), [&sim, counter] {
    if (counter != nullptr) ++*counter;
    keep_alive(sim, counter);
  });
}

/// Runs `sim` to `until` and returns what() of the watchdog trip that ended
/// it, or "" when the run reached `until` untripped. A stall or event-budget
/// trip is a plain runtime_error, never the wall-budget timeout.
std::string trip_diagnostic(sim::Simulator& sim, sim::TimeNs until) {
  try {
    sim.run(until);
  } catch (const WallBudgetExceeded& e) {
    ADD_FAILURE() << "unexpected wall-budget trip: " << e.what();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

}  // namespace

TEST(Watchdog, TripsOnStalledProgressAndStopsTheRun) {
  sim::Simulator sim;
  keep_alive(sim, nullptr);
  WatchdogConfig cfg;
  cfg.stall_horizon = sim::milliseconds(1);
  Watchdog dog(
      sim, nullptr, cfg, [] { return std::uint64_t{7}; },  // progress never advances
      [] { return false; }, [] { return std::string("flows=0/3"); });
  const std::string diagnostic = trip_diagnostic(sim, sim::seconds(1));

  EXPECT_LT(sim.now(), sim::milliseconds(3));  // thrown early, not run to 1s
  EXPECT_EQ(diagnostic.rfind("[watchdog] entity=simulation t=", 0), 0u) << diagnostic;
  EXPECT_NE(diagnostic.find("no progress"), std::string::npos);
  EXPECT_NE(diagnostic.find("flows=0/3"), std::string::npos);
}

TEST(Watchdog, DoesNotTripWhileProgressAdvances) {
  sim::Simulator sim;
  std::uint64_t work = 0;
  keep_alive(sim, &work);
  WatchdogConfig cfg;
  cfg.stall_horizon = sim::milliseconds(1);
  Watchdog dog(
      sim, nullptr, cfg, [&work] { return work; }, [] { return false; });
  EXPECT_EQ(trip_diagnostic(sim, sim::milliseconds(50)), "");
  EXPECT_EQ(sim.now(), sim::milliseconds(50));
}

TEST(Watchdog, DoesNotTripWhenDone) {
  sim::Simulator sim;
  keep_alive(sim, nullptr);
  WatchdogConfig cfg;
  cfg.stall_horizon = sim::milliseconds(1);
  Watchdog dog(
      sim, nullptr, cfg, [] { return std::uint64_t{7}; }, [] { return true; });
  // Flat progress after completion is fine.
  EXPECT_EQ(trip_diagnostic(sim, sim::milliseconds(20)), "");
  EXPECT_EQ(sim.now(), sim::milliseconds(20));
}

TEST(Watchdog, TripsOnEventExplosion) {
  sim::Simulator sim;
  keep_alive(sim, nullptr);
  WatchdogConfig cfg;
  cfg.max_events = 500;
  Watchdog dog(sim, nullptr, cfg);
  const std::string diagnostic = trip_diagnostic(sim, sim::seconds(1));
  EXPECT_LT(sim.now(), sim::milliseconds(30));
  EXPECT_NE(diagnostic.find("event budget exceeded: executed="), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find(" budget=500;"), std::string::npos) << diagnostic;
}

TEST(Watchdog, WallBudgetThrowsTheTimeoutWithItsDiagnostic) {
  sim::Simulator sim;
  keep_alive(sim, nullptr);
  WatchdogConfig cfg;
  cfg.wall_budget_s = 1e-9;  // spent before the first tick
  Watchdog dog(sim, nullptr, cfg);
  try {
    sim.run(sim::seconds(1));
    FAIL() << "the wall budget never tripped";
  } catch (const WallBudgetExceeded& e) {
    // The first tick, at 100 us, is the second event executed: one
    // keep-alive ran at 50 us.
    EXPECT_EQ(std::string(e.what()),
              "[cell_timeout] wall-clock limit 1e-09s exceeded (phase=run, "
              "sim_time=100us, executed_events=2)");
    EXPECT_GE(e.elapsed_s, 1e-9);
  }
  EXPECT_EQ(sim.now(), sim::microseconds(100));
}

// -------------------------------------------------- scenario / sweep level

namespace {

experiments::Options dumbbell_opts() {
  experiments::Options opts;
  opts.set("topology", "dumbbell");
  opts.set("duration_ms", "5");
  return opts;
}

}  // namespace

TEST(ScenarioRobustness, HealthyRunPassesInvariants) {
  sweep::SweepPoint point;
  point.opts = dumbbell_opts();
  const auto rec = sweep::run_scenario(point, /*quiet=*/true);
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(rec.results.at("invariants.evaluations"), 0.0);
  EXPECT_DOUBLE_EQ(rec.results.at("invariants.violations"), 0.0);
}

TEST(ScenarioRobustness, BleachedRunClearsMarksAndKeepsInvariants) {
  sweep::SweepPoint point;
  point.opts = dumbbell_opts();
  point.opts.set("bleach", "1.0");
  const auto rec = sweep::run_scenario(point, /*quiet=*/true);
  EXPECT_TRUE(rec.ok);
  EXPECT_GT(rec.results.at("faults.bleached"), 0.0);
  EXPECT_DOUBLE_EQ(rec.results.at("invariants.violations"), 0.0);
}

TEST(ScenarioRobustness, BrokenInvariantFailsCellInIsolationWithDiagnostic) {
  std::vector<sweep::SweepPoint> points(2);
  points[0].index = 0;
  points[0].label = "healthy";
  points[0].opts = dumbbell_opts();
  points[1].index = 1;
  points[1].label = "broken";
  points[1].opts = dumbbell_opts();
  points[1].opts.set("fault_test", "break_invariant");

  const auto records = sweep::run_sweep(points, {});
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].ok);   // sibling cell unaffected
  EXPECT_FALSE(records[1].ok);  // broken cell fails in isolation
  EXPECT_NE(records[1].error.find("packet_conservation"), std::string::npos);
  EXPECT_NE(records[1].error.find("entity=fabric"), std::string::npos);
  EXPECT_NE(records[1].error.find("t="), std::string::npos);

  // The diagnostic survives into the pmsb.sweep_report/1 JSON.
  const std::string report = sweep::sweep_report_json(records, 1, 0.1);
  EXPECT_NE(report.find("packet_conservation"), std::string::npos);
  EXPECT_NE(report.find("\"failed\":1"), std::string::npos);
}

TEST(ScenarioRobustness, DeadlineWithProfilerAttachedFailsCleanly) {
  // Regression: the wall-budget trip unwinds out of an event callback, and
  // with profile=1 the kernel used to skip the profiler's end_dispatch on
  // that path — the next profiled run would then throw on the unbalanced
  // scope instead of reporting the timeout. The combination must fail with
  // the [cell_timeout] diagnostic, nothing else.
  sweep::SweepPoint point;
  point.opts = dumbbell_opts();
  point.opts.set("profile", "1");
  point.opts.set("cell_timeout_s", "1e-9");  // trips at the first tick

  const auto records = sweep::run_sweep({point}, {});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_NE(records[0].error.find("[cell_timeout]"), std::string::npos)
      << records[0].error;
  EXPECT_NE(records[0].error.find("phase=run"), std::string::npos)
      << records[0].error;
  ASSERT_EQ(records[0].info.count("failed_phase"), 1u);
  EXPECT_EQ(records[0].info.at("failed_phase"), "run");
}

TEST(ScenarioRobustness, StalledRunTripsWatchdogWithForensics) {
  sweep::SweepPoint point;
  point.opts = dumbbell_opts();
  point.opts.set("duration_ms", "20");
  // The switch->receiver link goes down at 1 ms and never recovers: data is
  // blackholed, progress flatlines, and the watchdog must abort the run.
  point.opts.set("faults", "link:switch-receiver:down@1ms..");
  point.opts.set("watchdog_horizon_ms", "5");

  const auto records = sweep::run_sweep({point}, {});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_NE(records[0].error.find("watchdog"), std::string::npos);
  EXPECT_NE(records[0].error.find("no progress"), std::string::npos);
  EXPECT_NE(records[0].error.find("bytes_acked"), std::string::npos);
}

TEST(ScenarioRobustness, EventBudgetTripEndsTheRunInsideTheDumbbellWarmup) {
  // The dumbbell runs a 10 ms warm-up, then the measured window, in two
  // run() calls. A trip inside the warm-up must end the whole run there:
  // the measured window must never start, guarded or not.
  const std::string csv = std::string(::testing::TempDir()) + "/warmup_trip.csv";
  sweep::SweepPoint point;
  point.opts = dumbbell_opts();
  point.opts.set("duration_ms", "2000");
  point.opts.set("watchdog_events", "20000");
  point.opts.set("timeseries_csv", csv);
  std::string error;
  try {
    (void)sweep::run_scenario(point, /*quiet=*/true);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  EXPECT_EQ(error.rfind("[watchdog] entity=simulation t=", 0), 0u) << error;
  EXPECT_NE(error.find("event budget exceeded: executed="), std::string::npos) << error;
  EXPECT_NE(error.find(" budget=20000;"), std::string::npos) << error;

  std::ifstream in(csv);
  std::string line;
  std::string last;
  while (std::getline(in, line)) last = line;
  ASSERT_FALSE(last.empty());
  const double last_us = std::stod(last.substr(0, last.find(',')));
  EXPECT_LT(last_us, 10'000.0) << last;
  std::remove(csv.c_str());
}

TEST(ScenarioRobustness, EventBudgetWithProfilerAttachedFailsCleanly) {
  // The event-budget trip throws through dispatch like the wall budget:
  // with profile=1 the cell must fail with the watchdog's diagnostic alone,
  // the same text as without the profiler, and leave the next profiled
  // run balanced.
  std::vector<sweep::SweepPoint> points(3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].index = i;
    points[i].opts = dumbbell_opts();
    points[i].opts.set("watchdog_events", "20000");
    points[i].opts.set("duration_ms", "20");
    if (i != 1) points[i].opts.set("profile", "1");
  }
  const auto records = sweep::run_sweep(points, {});
  ASSERT_EQ(records.size(), 3u);
  for (const sweep::RunRecord& r : records) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.exit_class, "throw");
    EXPECT_EQ(r.error, records[1].error);
  }
  EXPECT_EQ(records[1].error.rfind("[watchdog] entity=simulation t=", 0), 0u)
      << records[1].error;
  EXPECT_NE(records[1].error.find("event budget exceeded: executed="), std::string::npos);
}

TEST(ScenarioRobustness, ZeroWatchdogBudgetArmsNothing) {
  // A watchdog key with no budget behind it leaves the run as an unguarded
  // one runs: no tick events and no watchdog instrument.
  const std::string path = std::string(::testing::TempDir()) + "/zero_budget.json";
  const auto run = [&path](const char* key) {
    sweep::SweepPoint point;
    point.opts = dumbbell_opts();
    point.opts.set("duration_ms", "20");
    point.opts.set("metrics_json", path);
    if (key != nullptr) point.opts.set(key, "0");
    const auto rec = sweep::run_scenario(point, /*quiet=*/true);
    std::ifstream in(path);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const telemetry::json::Value manifest = telemetry::json::parse(text);
    std::vector<std::string> names;
    for (const auto& m : manifest.at("metrics").array) names.push_back(m.at("name").string);
    return std::make_pair(rec.results.at("sim.events_executed"), names);
  };
  const auto plain = run(nullptr);
  for (const char* key : {"watchdog_horizon_ms", "watchdog_events"}) {
    const auto zero = run(key);
    EXPECT_EQ(zero.first, plain.first) << key;
    EXPECT_EQ(zero.second, plain.second) << key;
  }
  std::remove(path.c_str());
}

TEST(ScenarioRobustness, FaultedSweepIsDeterministic) {
  sweep::SweepPoint point;
  point.opts = dumbbell_opts();
  point.opts.set("faults", "loss:sender0->switch:0.01");
  const auto r1 = sweep::run_scenario(point, /*quiet=*/true);
  const auto r2 = sweep::run_scenario(point, /*quiet=*/true);
  EXPECT_EQ(sweep::deterministic_signature(r1), sweep::deterministic_signature(r2));
  EXPECT_GT(r1.results.at("faults.dropped"), 0.0);
}

namespace {

/// Every 10 us while other events are pending, brute-forces over every flow
/// of `fab`: each started, incomplete sender with bytes in flight must be
/// among the live flows, which are exactly the running slots, and the
/// watchdog probes, which walk only the live flows, must equal their sums
/// over all flows. A flow with endpoints is judged by its sender; only a
/// slot with none (not started, or done and freed) by its table state.
struct ActiveFlowAudit {
  experiments::Fabric& fab;
  std::size_t late_flow = std::numeric_limits<std::size_t>::max();
  std::uint64_t in_flight_seen = 0;  ///< (tick, flow) pairs with bytes out
  std::uint64_t late_seen = 0;       ///< of those, for late_flow

  void start() { fab.simulator().schedule_in(sim::microseconds(10), [this] { tick(); }); }

  void tick() {
    const std::vector<std::uint32_t>& live = fab.live_flows();
    ASSERT_TRUE(std::adjacent_find(live.begin(), live.end(), std::greater_equal<>()) ==
                live.end())
        << "live flows not strictly ascending";
    std::uint64_t acked = 0;
    bool all_done = true;
    for (std::size_t i = 0; i < fab.num_flows(); ++i) {
      const experiments::FlowSlot& slot = fab.slot(i);
      const bool running = slot.state == experiments::FlowSlot::State::kRunning;
      const bool is_live = std::binary_search(live.begin(), live.end(), i);
      EXPECT_EQ(is_live, running) << "flow " << i << " at t=" << fab.simulator().now();
      if (slot.endpoints == nullptr) {
        EXPECT_FALSE(running) << "running flow " << i << " has no endpoints";
        acked += slot.acked();
        all_done = all_done && slot.state == experiments::FlowSlot::State::kDone;
        continue;
      }
      const transport::DctcpSender& s = slot.endpoints->sender();
      acked += s.bytes_acked();
      all_done = all_done && s.complete();
      EXPECT_EQ(s.started() && !s.complete(), running)
          << "flow " << i << " at t=" << fab.simulator().now();
      if (s.started() && !s.complete() && s.bytes_inflight() > 0) {
        ++in_flight_seen;
        if (i == late_flow) ++late_seen;
        EXPECT_TRUE(is_live) << "flow " << i << " has " << s.bytes_inflight()
                             << "B in flight but is not live at t="
                             << fab.simulator().now();
      }
    }
    EXPECT_EQ(fab.total_bytes_acked(), acked);
    EXPECT_EQ(fab.all_complete(), all_done);
    if (fab.simulator().pending_events() > 0) start();
  }
};

experiments::LeafSpineConfig audit_fabric() {
  experiments::LeafSpineConfig cfg;  // the paper's 4x4, 48 hosts
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  experiments::SchemeParams params;
  params.rtt = experiments::LeafSpineScenario::base_rtt_interrack(cfg);
  params.weights = cfg.scheduler.weights;
  cfg.marking = experiments::make_scheme_marking(experiments::Scheme::kPmsb, params);
  return cfg;
}

/// Runs `wl` on the leaf-spine with the checker and the audit installed
/// BEFORE the flows are added, so every flow is a late one.
void audit_leafspine(const workload::Workload& wl) {
  experiments::LeafSpineScenario sc(audit_fabric());
  InvariantChecker checker(sc.simulator());
  sc.install_invariants(checker);
  Watchdog guard(sc.simulator(), &checker);
  ActiveFlowAudit audit{sc};
  audit.start();
  sc.add_workload(wl);
  ASSERT_TRUE(sc.run_until_complete(sim::seconds(1)));
  EXPECT_GT(audit.in_flight_seen, 0u);
  EXPECT_GT(checker.evaluations(), 0u);
  EXPECT_TRUE(checker.clean()) << checker.summary();
  EXPECT_TRUE(sc.all_complete());
  EXPECT_TRUE(sc.live_flows().empty());
  std::uint64_t bytes = 0;
  for (const workload::FlowSpec& f : wl.flows) bytes += f.bytes;
  EXPECT_EQ(sc.total_bytes_acked(), bytes);
}

}  // namespace

TEST(ScenarioRobustness, ActiveFlowsCoverEveryFlowInFlight) {
  {
    SCOPED_TRACE("leaf-spine pattern=rpc");
    workload::RpcConfig rc;
    rc.num_rpcs = 100;
    rc.mean_interarrival_us = 100.0;
    sim::Rng rng(5);
    audit_leafspine(workload::generate_rpc_fanout(rc, rng));
  }
  {
    SCOPED_TRACE("leaf-spine 2-stage coflow");
    workload::CoflowConfig cc;
    cc.num_coflows = 6;
    cc.num_mappers = 3;
    cc.num_reducers = 3;
    cc.num_stages = 2;  // stage-1 flows start mid-run, at their barrier
    cc.mean_interarrival_us = 300.0;
    sim::Rng rng(5);
    const workload::Workload wl = workload::generate_coflows(
        cc, workload::FlowSizeDistribution::fixed(30'000), rng);
    ASSERT_TRUE(std::any_of(wl.flows.begin(), wl.flows.end(),
                            [](const workload::FlowSpec& f) { return f.stage > 0; }));
    audit_leafspine(wl);
  }
  {
    SCOPED_TRACE("dumbbell");
    experiments::DumbbellConfig cfg;
    cfg.num_senders = 4;
    experiments::SchemeParams params;
    params.rtt = experiments::DumbbellScenario::base_rtt(cfg);
    cfg.marking = experiments::make_scheme_marking(experiments::Scheme::kPmsb, params);
    experiments::DumbbellScenario sc(cfg);
    sc.add_flow({.sender = 0, .service = 0, .bytes = 0});  // long-lived
    sc.add_flow({.sender = 1, .service = 1, .bytes = 400'000});
    // Paced far below the RTT's pace: between segments it has nothing in
    // flight yet is incomplete, so it must stay live.
    sc.add_flow({.sender = 3, .service = 0, .bytes = 30'000, .max_rate = sim::mbps(100)});
    InvariantChecker checker(sc.simulator());
    sc.install_invariants(checker);
    Watchdog guard(sc.simulator(), &checker);
    ActiveFlowAudit audit{sc};
    // Added after install_invariants: the liveness check must still cover it.
    audit.late_flow = sc.add_flow(
        {.sender = 2, .service = 1, .bytes = 300'000, .start = sim::milliseconds(1)});
    audit.start();
    sc.run(sim::milliseconds(5));
    EXPECT_GT(audit.late_seen, 0u);
    EXPECT_TRUE(sc.flow(2).sender().complete());
    EXPECT_TRUE(sc.flow(audit.late_flow).sender().complete());
    EXPECT_FALSE(sc.all_complete());  // the long-lived flow never completes
    EXPECT_EQ(sc.live_flows(), std::vector<std::uint32_t>{0});
    EXPECT_TRUE(checker.clean()) << checker.summary();
  }
}

// Every packet the fabric holds lives in one node of the thread's store, and
// nothing else does: at every invariant tick of a leaf-spine run with loss,
// a jittered delay stage and a link flap, the store's live nodes equal the
// packets in NIC queues, port buffers, links and delay stages, and none is
// left once the fabric is gone.
TEST(ScenarioRobustness, StoreNodesMatchThePacketsTheFabricHolds) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  std::uint64_t ticks = 0;
  std::uint64_t peak_held = 0;
  std::uint64_t peak_delayed = 0;
  {
    experiments::LeafSpineScenario sc(audit_fabric());
    FaultPlan plan;
    plan.add_spec_string(
        "loss:*->*:0.005;delay:spine0->*:30us+200us;link:leaf0-spine1:down@2ms..4ms");
    sc.install_faults(plan, 1);
    InvariantChecker checker(sc.simulator());
    sc.install_invariants(checker);
    checker.add_check("store_nodes", [&](InvariantChecker::Context& ctx) {
      ++ticks;
      const std::uint64_t held = sc.ledger().in_flight();
      peak_held = std::max(peak_held, held);
      peak_delayed = std::max(peak_delayed, plan.delayed_in_flight());
      if (store.live() - before != held) {
        ctx.violate("store", "live nodes " + std::to_string(store.live() - before) +
                                 " != held packets " + std::to_string(held));
      }
    });
    Watchdog guard(sc.simulator(), &checker);
    workload::TrafficConfig tc;
    tc.num_hosts = sc.num_hosts();
    tc.load = 0.6;
    tc.num_flows = 150;
    tc.num_services = 8;
    sim::Rng rng(11);
    sc.add_workload(workload::generate_poisson_traffic(
        tc, workload::FlowSizeDistribution::web_search(), rng));
    ASSERT_TRUE(sc.run_until_complete(sim::seconds(2)));
    EXPECT_TRUE(checker.clean()) << checker.summary();
    EXPECT_GT(plan.dropped(), 0u);
    EXPECT_GT(plan.point_between("leaf0", "spine1")->counters().dropped_down, 0u);
  }
  EXPECT_GT(ticks, 20u);
  EXPECT_GT(peak_held, 100u);
  EXPECT_GT(peak_delayed, 0u);
  EXPECT_EQ(store.live(), before);
}

TEST(ScenarioRobustness, InvariantsAreResultNeutral) {
  // The checker only reads: turning it off leaves the digest and every
  // result unchanged except its own counters. It rides the watchdog's tick,
  // which both sides arm, so the executed-event count is equal too. A
  // benchmark pass with invariants=0 relies on it.
  std::vector<experiments::Options> cells(2);
  cells[0] = dumbbell_opts();
  cells[0].set("duration_ms", "10");
  cells[1].set("topology", "leafspine");
  cells[1].set("pattern", "rpc");
  cells[1].set("rpcs", "60");
  cells[1].set("seed", "3");
  auto neutral = [](std::map<std::string, double> results) {
    std::erase_if(results, [](const auto& kv) {
      return kv.first.starts_with("invariants.") || kv.first == "sim.events_executed";
    });
    return results;
  };
  for (experiments::Options& opts : cells) {
    SCOPED_TRACE(opts.get("topology"));
    opts.set("digest", "1");
    opts.set("watchdog_horizon_ms", "50");
    sweep::SweepPoint on;
    on.opts = opts;
    on.opts.set("invariants", "1");
    sweep::SweepPoint off;
    off.opts = opts;
    off.opts.set("invariants", "0");
    const auto with = sweep::run_scenario(on, /*quiet=*/true);
    const auto without = sweep::run_scenario(off, /*quiet=*/true);
    ASSERT_TRUE(with.ok && without.ok);
    EXPECT_GT(with.results.at("invariants.evaluations"), 0.0);
    EXPECT_DOUBLE_EQ(with.results.at("invariants.violations"), 0.0);
    EXPECT_EQ(without.results.count("invariants.evaluations"), 0u);
    EXPECT_FALSE(with.info.at("digest").empty());
    EXPECT_EQ(with.info, without.info);  // digest included
    EXPECT_EQ(neutral(with.results), neutral(without.results));
    EXPECT_EQ(with.results.at("sim.events_executed"),
              without.results.at("sim.events_executed"));
  }
}

// ------------------------------------------- injector lifetime regression

TEST(FaultInjectorLifetime, DelayedDeliveryAfterDestructionIsSafe) {
  sim::Simulator sim;
  Host b{sim, 1, "b"};
  test::TestDemux demux{&b};
  demux.take(1);

  auto injector = std::make_unique<FaultInjector>(sim, &b);
  injector->set_extra_delay(sim::milliseconds(1));
  sim.schedule_at(0, [&] { injector->receive(make_node(1, 1)); });
  sim.run(sim::microseconds(10));  // receive ran; delayed delivery pending
  ASSERT_EQ(injector->delayed_in_flight(), 1u);

  // Destroy the injector while its delay stage still holds a packet. The
  // orphaned event must become a no-op instead of dereferencing dead state.
  injector.reset();
  sim.run();
  EXPECT_EQ(demux.taken(b, 1).size(), 0u);
}

// The delay stage holds each packet's node in its event. Destroying the
// injector leaves the events to fire as no-ops that give the nodes back;
// destroying the simulator with them pending gives them back too.
TEST(FaultInjectorLifetime, DestroyedWithDelayedDeliveriesReturnsTheirNodes) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  {
    sim::Simulator sim;
    Host b{sim, 1, "b"};
    test::TestDemux demux{&b};
    demux.take(1);
    auto injector = std::make_unique<FaultInjector>(sim, &b);
    injector->set_extra_delay(sim::milliseconds(1));
    sim.schedule_at(0, [&] {
      for (int i = 0; i < 3; ++i) injector->receive(make_node(1, 1));
    });
    sim.run(sim::microseconds(10));
    ASSERT_EQ(injector->delayed_in_flight(), 3u);
    EXPECT_EQ(store.live(), before + 3);
    injector.reset();
    EXPECT_EQ(store.live(), before + 3);  // the pending events hold them
    sim.run();
    EXPECT_EQ(store.live(), before);
    EXPECT_EQ(demux.taken(b, 1).size(), 0u);
  }
  {
    sim::Simulator sim;
    Host b{sim, 1, "b"};
    FaultInjector injector(sim, &b);
    injector.set_extra_delay(sim::milliseconds(1), sim::microseconds(50));
    sim.schedule_at(0, [&] {
      for (int i = 0; i < 4; ++i) injector.receive(make_node(1, 1));
    });
    sim.run(sim::microseconds(10));
    EXPECT_EQ(store.live(), before + 4);
  }
  EXPECT_EQ(store.live(), before);
}

TEST(FaultInjectorLifetime, DetachBlackholesInsteadOfDereferencingDeadInner) {
  sim::Simulator sim;
  auto b = std::make_unique<Host>(sim, 1, "b");
  FaultInjector injector(sim, b.get());
  injector.set_extra_delay(sim::milliseconds(1));
  sim.schedule_at(0, [&] { injector.receive(make_node(1, 1)); });
  sim.run(sim::microseconds(10));

  // Inner node dies first; detach() makes pending deliveries counted drops.
  injector.detach();
  b.reset();
  sim.run();
  EXPECT_EQ(injector.counters().dropped_down, 1u);
  EXPECT_EQ(injector.forwarded(), 0u);
}

TEST(LinkDestination, SetDestinationReroutesInFlightPackets) {
  sim::Simulator sim;
  Host a{sim, 0, "a"};
  Host b{sim, 1, "b"};
  Host c{sim, 2, "c"};
  Link ab{sim, sim::gbps(10), sim::microseconds(2), &b};
  a.attach_uplink(&ab);
  test::TestDemux demux{&b, &c};
  demux.take(1);

  sim.schedule_at(0, [&] { a.send(make_packet(1, 1)); });
  // Re-point the link while the packet is still in flight: delivery resolves
  // the destination at arrival time, so the interposer sees it.
  sim.schedule_at(sim::microseconds(1), [&] { ab.set_destination(&c); });
  sim.run();
  EXPECT_EQ(demux.taken(b, 1).size(), 0u);
  EXPECT_EQ(demux.taken(c, 1).size(), 1u);
  EXPECT_EQ(ab.packets_delivered(), 1u);
  EXPECT_EQ(ab.packets_in_flight(), 0u);
}
