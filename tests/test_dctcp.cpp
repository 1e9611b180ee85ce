// End-to-end DCTCP transport tests over the dumbbell scenario: completion,
// throughput, ECN reaction, loss recovery, pacing, RTT estimation.
#include <gtest/gtest.h>

#include "experiments/dumbbell.hpp"
#include "transport/rtt_estimator.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

DumbbellConfig base_config(std::size_t senders, std::size_t queues = 1) {
  DumbbellConfig cfg;
  cfg.num_senders = senders;
  cfg.link_rate = sim::gbps(10);
  cfg.link_delay = sim::microseconds(2);
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = queues;
  cfg.marking.kind = ecn::MarkingKind::kNone;
  return cfg;
}

}  // namespace

TEST(Dctcp, ShortFlowCompletes) {
  DumbbellScenario sc(base_config(1));
  const auto idx = sc.add_flow({.sender = 0, .service = 0, .bytes = 14600, .start = 0});
  sim::TimeNs fct = -1;
  sc.flow(idx).sender().set_completion_callback([&](sim::TimeNs t) { fct = t; });
  sc.run(sim::milliseconds(10));
  EXPECT_TRUE(sc.flow(idx).sender().complete());
  // 10 segments, initial window 10: one RTT-ish.
  EXPECT_GT(fct, 0);
  EXPECT_LT(fct, sim::microseconds(100));
}

TEST(Dctcp, CompletionDeliversExactBytes) {
  DumbbellScenario sc(base_config(1));
  const std::uint64_t bytes = 777'777;  // not a multiple of MSS
  const auto idx = sc.add_flow({.sender = 0, .service = 0, .bytes = bytes, .start = 0});
  sc.run(sim::milliseconds(50));
  ASSERT_TRUE(sc.flow(idx).sender().complete());
  EXPECT_EQ(sc.flow(idx).sender().bytes_acked(), bytes);
  EXPECT_EQ(sc.flow(idx).receiver().rcv_nxt(), bytes);
}

TEST(Dctcp, LongFlowSaturatesLink) {
  DumbbellScenario sc(base_config(1));
  const auto idx = sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(5));
  const auto s1 = sc.flow(idx).sender().bytes_acked();
  sc.run(sim::milliseconds(25));
  const auto s2 = sc.flow(idx).sender().bytes_acked();
  const double gbps = static_cast<double>(s2 - s1) * 8.0 /
                      static_cast<double>(sim::milliseconds(20));
  // Goodput ~ payload share of 10G (1460/1500 = 9.73) minus slack.
  EXPECT_GT(gbps, 9.0);
  EXPECT_LT(gbps, 10.0);
}

TEST(Dctcp, EcnMarkingKeepsBufferNearThreshold) {
  auto cfg = base_config(4);
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  DumbbellScenario sc(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(20));
  // After convergence the buffer should hover near K, far below the cap.
  const auto buffered = sc.bottleneck().buffered_bytes();
  EXPECT_LT(buffered, 60u * 1500u);
  EXPECT_GT(sc.bottleneck().stats().marked_enqueue, 100u);
  EXPECT_EQ(sc.bottleneck().stats().dropped_packets, 0u);
}

TEST(Dctcp, AlphaStaysInUnitInterval) {
  auto cfg = base_config(4);
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 8 * 1500;
  DumbbellScenario sc(cfg);
  for (std::size_t i = 0; i < 4; ++i) {
    sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
  }
  for (int ms = 1; ms <= 20; ++ms) {
    sc.run(sim::milliseconds(ms));
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(sc.flow(i).sender().alpha(), 0.0);
      EXPECT_LE(sc.flow(i).sender().alpha(), 1.0);
      EXPECT_GE(sc.flow(i).sender().cwnd_bytes(), 1460.0);
    }
  }
}

TEST(Dctcp, MarksTriggerWindowCuts) {
  auto cfg = base_config(2);
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 8 * 1500;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  sc.add_flow({.sender = 1, .service = 0, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(20));
  EXPECT_GT(sc.flow(0).sender().stats().ece_acks, 0u);
  EXPECT_GT(sc.flow(0).sender().stats().window_cuts, 0u);
}

TEST(Dctcp, RecoversFromDropsInTinyBuffer) {
  auto cfg = base_config(4);
  cfg.buffer_bytes = 8 * 1500;  // tiny: slow-start overshoot must drop
  cfg.marking.kind = ecn::MarkingKind::kNone;  // force loss-based behaviour
  DumbbellScenario sc(cfg);
  std::vector<std::size_t> flows;
  for (std::size_t i = 0; i < 4; ++i) {
    flows.push_back(
        sc.add_flow({.sender = i, .service = 0, .bytes = 500'000, .start = 0}));
  }
  sc.run(sim::seconds(2));
  std::uint64_t retx = 0;
  for (auto idx : flows) {
    EXPECT_TRUE(sc.flow(idx).sender().complete()) << "flow " << idx;
    retx += sc.flow(idx).sender().stats().retransmits;
  }
  EXPECT_GT(sc.bottleneck().stats().dropped_packets, 0u);
  EXPECT_GT(retx, 0u);
}

TEST(Dctcp, TwoFlowsShareFairly) {
  // DCTCP converges to fairness through its ECN feedback loop, so the
  // bottleneck needs a marking scheme (plain drop-tail TCP with a huge
  // buffer has no mechanism to equalise synchronized flows).
  auto cfg = base_config(2);
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  sc.add_flow({.sender = 1, .service = 0, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(10));
  const auto a1 = sc.flow(0).sender().bytes_acked();
  const auto b1 = sc.flow(1).sender().bytes_acked();
  sc.run(sim::milliseconds(60));
  const double a = static_cast<double>(sc.flow(0).sender().bytes_acked() - a1);
  const double b = static_cast<double>(sc.flow(1).sender().bytes_acked() - b1);
  EXPECT_NEAR(a / b, 1.0, 0.25);
}

TEST(Dctcp, RateCapHoldsThroughputAtCap) {
  DumbbellScenario sc(base_config(1));
  const auto idx =
      sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
                   .max_rate = sim::gbps(3)});
  sc.run(sim::milliseconds(5));
  const auto s1 = sc.flow(idx).sender().bytes_acked();
  sc.run(sim::milliseconds(25));
  const double gbps =
      static_cast<double>(sc.flow(idx).sender().bytes_acked() - s1) * 8.0 /
      static_cast<double>(sim::milliseconds(20));
  EXPECT_NEAR(gbps, 3.0 * 1460 / 1500, 0.15);  // goodput of a 3 Gbps wire cap
}

TEST(Dctcp, RttTracksBaseRttWhenUncongested) {
  DumbbellScenario sc(base_config(1));
  const auto idx = sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
                                .max_rate = sim::gbps(1)});
  sc.run(sim::milliseconds(10));
  const auto srtt = sc.flow(idx).sender().rtt().srtt();
  EXPECT_GT(srtt, sc.base_rtt() / 2);
  EXPECT_LT(srtt, 3 * sc.base_rtt());
}

TEST(Dctcp, StaggeredStartRespectsStartTime) {
  DumbbellScenario sc(base_config(1));
  const auto idx = sc.add_flow(
      {.sender = 0, .service = 0, .bytes = 14600, .start = sim::milliseconds(5)});
  sc.run(sim::milliseconds(4));
  EXPECT_EQ(sc.flow(idx).sender().bytes_acked(), 0u);
  sc.run(sim::milliseconds(10));
  EXPECT_TRUE(sc.flow(idx).sender().complete());
  EXPECT_GE(sc.flow(idx).sender().start_time(), sim::milliseconds(5));
}

TEST(Dctcp, CwndNeverExceedsSocketBufferCap) {
  auto cfg = base_config(1);
  cfg.transport.max_cwnd_bytes = 64 * 1460;
  DumbbellScenario sc(cfg);
  // No marking, no drops: only the cap can stop window growth.
  const auto idx = sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  for (int ms = 1; ms <= 20; ++ms) {
    sc.run(sim::milliseconds(ms));
    EXPECT_LE(sc.flow(idx).sender().cwnd_bytes(), 64.0 * 1460 + 1.0);
  }
  // The cap is generous vs the BDP, so throughput is still line rate.
  const auto s = sc.flow(idx).sender().bytes_acked();
  sc.run(sim::milliseconds(30));
  const double gbps = static_cast<double>(sc.flow(idx).sender().bytes_acked() - s) *
                      8.0 / static_cast<double>(sim::milliseconds(10));
  EXPECT_GT(gbps, 9.0);
}

TEST(DctcpReceiver, AcksEveryDataPacketOfAnUnmarkedFlow) {
  DumbbellScenario sc(base_config(2));
  const auto idx = sc.add_flow({.sender = 0, .service = 0, .bytes = 146'000, .start = 0});
  sc.run(sim::milliseconds(50));
  ASSERT_TRUE(sc.flow(idx).sender().complete());
  EXPECT_EQ(sc.flow(idx).receiver().acks_sent(),
            sc.flow(idx).receiver().data_packets());
}

TEST(DctcpReceiver, AcksEveryDataPacketAndEchoesItsCeExactly) {
  // Loss-free marked run: every data packet gets one ACK carrying its own
  // CE bit, so the sender sees exactly as many ECE ACKs as the receiver
  // saw CE packets.
  auto cfg = base_config(2);
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 12 * 1500;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 2'000'000, .start = 0});
  sc.add_flow({.sender = 1, .service = 0, .bytes = 2'000'000, .start = 0});
  sc.run(sim::milliseconds(50));
  EXPECT_EQ(sc.bottleneck().stats().dropped_packets, 0u);
  for (std::size_t f = 0; f < 2; ++f) {
    const auto& sender = sc.flow(f).sender();
    const auto& receiver = sc.flow(f).receiver();
    ASSERT_TRUE(sender.complete()) << "flow " << f;
    EXPECT_EQ(sender.stats().retransmits, 0u) << "flow " << f;
    EXPECT_EQ(receiver.acks_sent(), receiver.data_packets()) << "flow " << f;
    EXPECT_EQ(sender.stats().acks_received, receiver.acks_sent()) << "flow " << f;
    EXPECT_GT(receiver.ce_packets(), 0u) << "flow " << f;
    EXPECT_EQ(sender.stats().ece_acks, receiver.ce_packets()) << "flow " << f;
  }
}

TEST(RttEstimatorUnit, FirstSampleInitialises) {
  transport::RttEstimator est;
  EXPECT_FALSE(est.valid());
  est.add_sample(sim::microseconds(100));
  EXPECT_TRUE(est.valid());
  EXPECT_EQ(est.srtt(), sim::microseconds(100));
  EXPECT_EQ(est.last_sample(), sim::microseconds(100));
}

TEST(RttEstimatorUnit, SmoothsTowardSamples) {
  transport::RttEstimator est;
  est.add_sample(sim::microseconds(100));
  for (int i = 0; i < 50; ++i) est.add_sample(sim::microseconds(200));
  EXPECT_NEAR(static_cast<double>(est.srtt()),
              static_cast<double>(sim::microseconds(200)), 5e3);
}

TEST(RttEstimatorUnit, RtoRespectsFloor) {
  transport::RttEstimator est(sim::milliseconds(1));
  est.add_sample(sim::microseconds(10));
  EXPECT_GE(est.rto(), sim::milliseconds(1));
}
