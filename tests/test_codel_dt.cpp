// Tests for the CoDel marking scheme and Dynamic Threshold buffer
// management.
#include <gtest/gtest.h>

#include <algorithm>

#include "ecn/codel.hpp"
#include "ecn/factory.hpp"
#include "experiments/dumbbell.hpp"
#include "experiments/multiport.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::ecn;

namespace {
net::Packet pkt_enqueued_at(sim::TimeNs t) {
  net::Packet p;
  p.enqueue_time = t;
  return p;
}
PortSnapshot backlogged() {
  PortSnapshot s;
  s.queue_bytes = 30'000;
  s.port_bytes = 30'000;
  return s;
}
}  // namespace

TEST(Codel, NeverMarksAtEnqueue) {
  CodelMarking m({.target = sim::microseconds(10), .interval = sim::microseconds(100)});
  EXPECT_FALSE(m.should_mark(backlogged(), pkt_enqueued_at(0), MarkPoint::kEnqueue,
                             sim::seconds(1)));
}

TEST(Codel, ToleratesSojournBelowTarget) {
  CodelMarking m({.target = sim::microseconds(10), .interval = sim::microseconds(100)});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(m.should_mark(backlogged(), pkt_enqueued_at(i * 1000),
                               MarkPoint::kDequeue, i * 1000 + sim::microseconds(5)));
  }
}

TEST(Codel, RequiresFullIntervalAboveTargetBeforeMarking) {
  CodelMarking m({.target = sim::microseconds(10), .interval = sim::microseconds(100)});
  // First above-target dequeue arms the clock but must not mark.
  EXPECT_FALSE(m.should_mark(backlogged(), pkt_enqueued_at(0), MarkPoint::kDequeue,
                             sim::microseconds(20)));
  // Still inside the interval: no mark.
  EXPECT_FALSE(m.should_mark(backlogged(), pkt_enqueued_at(sim::microseconds(40)),
                             MarkPoint::kDequeue, sim::microseconds(60)));
  // A full interval later, still above target: the marking phase begins.
  EXPECT_TRUE(m.should_mark(backlogged(), pkt_enqueued_at(sim::microseconds(110)),
                            MarkPoint::kDequeue, sim::microseconds(130)));
}

TEST(Codel, MarkingRateAccelerates) {
  CodelMarking m({.target = sim::microseconds(10), .interval = sim::microseconds(100)});
  sim::TimeNs now = 0;
  int marks = 0;
  // Persistently congested queue: sojourn always 50us over 3ms.
  for (; now < sim::milliseconds(3); now += sim::microseconds(5)) {
    marks += m.should_mark(backlogged(), pkt_enqueued_at(now - sim::microseconds(50)),
                           MarkPoint::kDequeue, now)
                 ? 1
                 : 0;
  }
  const int early = marks;
  for (; now < sim::milliseconds(6); now += sim::microseconds(5)) {
    marks += m.should_mark(backlogged(), pkt_enqueued_at(now - sim::microseconds(50)),
                           MarkPoint::kDequeue, now)
                 ? 1
                 : 0;
  }
  EXPECT_GT(marks - early, early);  // later window marks faster (sqrt law)
}

TEST(Codel, RecoversWhenCongestionClears) {
  CodelMarking m({.target = sim::microseconds(10), .interval = sim::microseconds(100)});
  sim::TimeNs now = 0;
  for (; now < sim::milliseconds(2); now += sim::microseconds(5)) {
    (void)m.should_mark(backlogged(), pkt_enqueued_at(now - sim::microseconds(50)),
                        MarkPoint::kDequeue, now);
  }
  // Sojourn drops below target: marking must stop immediately.
  EXPECT_FALSE(m.should_mark(backlogged(), pkt_enqueued_at(now - sim::microseconds(2)),
                             MarkPoint::kDequeue, now));
  // And a brief re-excursion needs a fresh interval before marking again.
  EXPECT_FALSE(m.should_mark(backlogged(),
                             pkt_enqueued_at(now + sim::microseconds(5)),
                             MarkPoint::kDequeue, now + sim::microseconds(25)));
}

TEST(Codel, FactoryForcesDequeueAndBuilds) {
  MarkingConfig cfg;
  cfg.kind = MarkingKind::kCodel;
  cfg.point = MarkPoint::kEnqueue;
  cfg.sojourn_threshold = sim::microseconds(80);
  cfg.weights = {1.0, 1.0};
  EXPECT_EQ(effective_mark_point(cfg), MarkPoint::kDequeue);
  auto scheme = make_marking(cfg);
  EXPECT_EQ(scheme->name(), "CoDel");
  EXPECT_FALSE(scheme->early_notification());
}

TEST(Codel, KeepsLinkSaturatedEndToEnd) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 4;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = MarkingKind::kCodel;
  // Target T/4 = 15 us, interval 10 targets = 150 us.
  cfg.marking.sojourn_threshold = sim::microseconds(60);
  cfg.marking.weights = {1.0};
  experiments::DumbbellScenario sc(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(10));
  const auto s = sc.served_bytes(0);
  sc.run(sim::milliseconds(40));
  const double gbps = static_cast<double>(sc.served_bytes(0) - s) * 8.0 /
                      static_cast<double>(sim::milliseconds(30));
  EXPECT_GT(gbps, 9.0);
  EXPECT_GT(sc.bottleneck().stats().marked_dequeue, 50u);
  EXPECT_EQ(sc.bottleneck().stats().dropped_packets, 0u);
}

TEST(DynamicThreshold, CapsHeavyPortWhenPoolFills) {
  // Two pooled ports with DT alpha=1: the congested port may only hold as
  // much as the remaining free pool, so it cannot starve the other port.
  experiments::MultiPortConfig cfg;
  cfg.num_senders = 9;
  cfg.num_receivers = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = MarkingKind::kNone;  // force buffer pressure
  cfg.buffer_bytes = 4096ull * 1500ull;
  cfg.shared_pool_bytes = 64ull * 1500ull;
  cfg.buffer_policy = {.kind = switchlib::BufferPolicyKind::kDynamicThresholds,
                       .dt_alpha = 1.0};
  experiments::MultiPortScenario sc(cfg);
  for (std::size_t i = 0; i < 8; ++i) {
    sc.add_flow({.sender = i, .receiver = 0, .service = 0, .bytes = 0, .start = 0});
  }
  sc.add_flow({.sender = 8, .receiver = 1, .service = 0, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(20));
  // DT invariant: port 0's occupancy stays at/below alpha * free pool, so it
  // can never exhaust the pool (occupancy <= half of it for alpha=1).
  const auto pool_limit = sc.pool()->limit();
  EXPECT_LE(sc.receiver_port(0).buffered_bytes(), pool_limit / 2 + 1500);
  // Port 1's lone flow keeps running.
  EXPECT_GT(sc.served_bytes(1, 0), 0u);
  EXPECT_GT(sc.receiver_port(0).stats().dropped_packets, 0u);  // DT is dropping
}

TEST(DynamicThreshold, DisabledMeansStaticBudgets) {
  // The contrast to the test above: under the default static policy the
  // same 64-packet pool has no DT cap, so one congested port may fill it.
  experiments::MultiPortConfig cfg;
  cfg.num_senders = 8;
  cfg.num_receivers = 1;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = MarkingKind::kNone;  // force buffer pressure
  cfg.buffer_bytes = 4096ull * 1500ull;
  cfg.shared_pool_bytes = 64ull * 1500ull;
  experiments::MultiPortScenario sc(cfg);
  telemetry::TimeSeriesSampler occupancy(sc.simulator(), sim::microseconds(10));
  occupancy.add_probe("bytes", [&sc] {
    return static_cast<double>(sc.receiver_port(0).buffered_bytes());
  });
  occupancy.start();
  for (std::size_t i = 0; i < 8; ++i) {
    sc.add_flow({.sender = i, .receiver = 0, .service = 0, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(20));
  const auto& drops = sc.receiver_port(0).stats().dropped_by_reason;
  EXPECT_EQ(drops[static_cast<std::size_t>(switchlib::DropReason::kDynamicThreshold)],
            0u);
  // Eight senders overrun the pool, so the static path is really exercised.
  EXPECT_GT(drops[static_cast<std::size_t>(switchlib::DropReason::kPoolExhausted)], 0u);
  // DT with alpha=1 would hold the port at alpha * free pool, i.e. at most
  // half the pool; the static port grows past that cap.
  const double dt_cap = static_cast<double>(sc.pool()->limit()) / 2 + 1500;
  EXPECT_GT(std::ranges::max(occupancy.column(0)), dt_cap);
}
