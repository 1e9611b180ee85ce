// Integration tests on the dumbbell scenario reproducing the paper's
// qualitative claims end to end:
//  - per-port marking violates weighted fair sharing (Fig. 3)
//  - PMSB restores it while keeping the link full (Fig. 8)
//  - PMSB keeps RTT far below per-queue standard marking (Fig. 9)
//  - dequeue marking lowers the slow-start buffer peak (Figs. 4/11)
#include <gtest/gtest.h>

#include <algorithm>

#include "experiments/dumbbell.hpp"
#include "experiments/presets.hpp"
#include "stats/rtt_recorder.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

DumbbellConfig two_queue_dwrr(std::size_t senders) {
  DumbbellConfig cfg;
  cfg.num_senders = senders;
  cfg.link_rate = sim::gbps(10);
  cfg.link_delay = sim::microseconds(2);
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  return cfg;
}

struct Shares {
  double q0 = 0, q1 = 0, total_gbps = 0;
};

// 1 flow in queue 0 vs `n` flows in queue 1, returns service shares.
Shares run_one_vs_n(DumbbellConfig cfg, std::size_t n, bool pmsbe = false,
                    sim::TimeNs rtt_threshold = 0) {
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
               .pmsbe = pmsbe, .pmsbe_rtt_threshold = rtt_threshold});
  for (std::size_t i = 1; i <= n; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0,
                 .pmsbe = pmsbe, .pmsbe_rtt_threshold = rtt_threshold});
  }
  sc.run(sim::milliseconds(10));
  const auto s0 = sc.served_bytes(0);
  const auto s1 = sc.served_bytes(1);
  sc.run(sim::milliseconds(60));
  const double d0 = static_cast<double>(sc.served_bytes(0) - s0);
  const double d1 = static_cast<double>(sc.served_bytes(1) - s1);
  Shares out;
  out.q0 = d0 / (d0 + d1);
  out.q1 = d1 / (d0 + d1);
  out.total_gbps = (d0 + d1) * 8.0 / static_cast<double>(sim::milliseconds(50));
  return out;
}

}  // namespace

TEST(DumbbellIntegration, PerPortMarkingViolatesFairSharing) {
  // Paper Fig. 3: K=16 pkts, 1 vs 8 flows -> victim queue gets ~25%.
  auto cfg = two_queue_dwrr(9);
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  const auto s = run_one_vs_n(cfg, 8);
  EXPECT_LT(s.q0, 0.40);  // clearly below the fair 0.5
  EXPECT_GT(s.total_gbps, 9.0);
}

TEST(DumbbellIntegration, PmsbRestoresFairSharing) {
  // Paper Fig. 8: PMSB with port K=12 pkts keeps 1:4 at 50/50.
  auto cfg = two_queue_dwrr(5);
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = {1.0, 1.0};
  const auto s = run_one_vs_n(cfg, 4);
  EXPECT_NEAR(s.q0, 0.5, 0.05);
  EXPECT_GT(s.total_gbps, 9.0);
}

TEST(DumbbellIntegration, PmsbHoldsFairnessUnderHeavyTraffic) {
  // Paper Fig. 10: even 1:100 stays fair (scaled here to 1:40 to keep the
  // test fast; the bench reproduces the full 1:100).
  auto cfg = two_queue_dwrr(41);
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = {1.0, 1.0};
  cfg.buffer_bytes = 4096ull * 1500ull;
  const auto s = run_one_vs_n(cfg, 40);
  EXPECT_NEAR(s.q0, 0.5, 0.08);
}

TEST(DumbbellIntegration, PerQueueStandardInflatesRtt) {
  // Paper Fig. 9's contrast: with per-queue standard thresholds both queues
  // hold ~K each, so RTT is roughly double the PMSB case.
  auto base = two_queue_dwrr(2);

  auto mk_run = [&](ecn::MarkingKind kind) {
    auto cfg = base;
    cfg.marking.kind = kind;
    cfg.marking.threshold_bytes =
        kind == ecn::MarkingKind::kPmsb ? 12 * 1500 : 16 * 1500;
    cfg.marking.weights = {1.0, 1.0};
    DumbbellScenario sc(cfg);
    sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
    sc.add_flow({.sender = 1, .service = 1, .bytes = 0, .start = 0});
    stats::RttRecorder rtt(sim::milliseconds(5));
    sc.flow(1).sender().add_observer(&rtt);
    sc.run(sim::milliseconds(40));
    return rtt.us().mean();
  };

  const double rtt_perqueue = mk_run(ecn::MarkingKind::kPerQueueStandard);
  const double rtt_pmsb = mk_run(ecn::MarkingKind::kPmsb);
  EXPECT_LT(rtt_pmsb, rtt_perqueue * 0.75);
}

TEST(DumbbellIntegration, DequeueMarkingCutsSlowStartPeak) {
  // Paper Figs. 4/11: marking at dequeue delivers congestion info earlier,
  // so the slow-start buffer peak drops noticeably.
  auto run_peak = [&](ecn::MarkPoint point) {
    DumbbellConfig cfg;
    cfg.num_senders = 4;
    cfg.link_rate = sim::gbps(1);  // paper uses 1G for this microbench
    cfg.link_delay = sim::microseconds(2);
    cfg.scheduler.kind = sched::SchedulerKind::kFifo;
    cfg.scheduler.num_queues = 1;
    cfg.marking.kind = ecn::MarkingKind::kPerQueueStandard;
    cfg.marking.threshold_bytes = 16 * 1500;
    cfg.marking.point = point;
    DumbbellScenario sc(cfg);
    telemetry::TimeSeriesSampler occupancy(sc.simulator(), sim::microseconds(2));
    occupancy.add_probe("bytes", [&] {
      return static_cast<double>(sc.bottleneck().buffered_bytes());
    });
    occupancy.start();
    for (std::size_t i = 0; i < 4; ++i) {
      sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
    }
    sc.run(sim::milliseconds(30));
    return std::ranges::max(occupancy.column(0));
  };
  const double peak_enqueue = run_peak(ecn::MarkPoint::kEnqueue);
  const double peak_dequeue = run_peak(ecn::MarkPoint::kDequeue);
  // Paper reports ~25% reduction; accept anything clearly lower.
  EXPECT_LT(peak_dequeue, peak_enqueue * 0.95);
}

TEST(DumbbellIntegration, SpSchedulerHonoursPriorityUnderPmsb) {
  // Paper Fig. 14 (scaled): rate-capped 5G in high queue, greedy in low;
  // high queue must get its full 5G, low queue the remainder.
  DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kSp;
  cfg.scheduler.num_queues = 2;
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = {1.0, 1.0};
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
               .max_rate = sim::gbps(5)});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(10));
  const auto s0 = sc.served_bytes(0);
  const auto s1 = sc.served_bytes(1);
  sc.run(sim::milliseconds(50));
  const double dt = static_cast<double>(sim::milliseconds(40));
  const double g0 = static_cast<double>(sc.served_bytes(0) - s0) * 8.0 / dt;
  const double g1 = static_cast<double>(sc.served_bytes(1) - s1) * 8.0 / dt;
  EXPECT_NEAR(g0, 5.0, 0.4);
  EXPECT_GT(g1, 4.0);
}

TEST(DumbbellIntegration, BaseRttMatchesMeasured) {
  DumbbellConfig cfg;
  cfg.num_senders = 1;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.marking.kind = ecn::MarkingKind::kNone;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 1460, .start = 0});
  stats::RttRecorder rtt;
  sc.flow(0).sender().add_observer(&rtt);
  sc.run(sim::milliseconds(1));
  ASSERT_EQ(rtt.us().count(), 1u);
  EXPECT_NEAR(rtt.us().mean(), sim::to_microseconds(sc.base_rtt()), 2.0);
}
