// Unit tests for the MQ-ECN dynamic-threshold estimator (Eq. 3).
#include <gtest/gtest.h>

#include "ecn/mq_ecn.hpp"

using namespace pmsb;
using namespace pmsb::ecn;

namespace {
MqEcnConfig base_config() {
  MqEcnConfig cfg;
  cfg.quantum_bytes = {1500.0, 1500.0};
  cfg.capacity = sim::gbps(10);
  cfg.rtt = sim::microseconds(80);
  cfg.t_idle = sim::microseconds_f(1.2);
  return cfg;
}
constexpr double kStandardK = 100'000.0;  // 10G * 80us
}  // namespace

TEST(MqEcn, StandardThresholdWithNoRoundEstimate) {
  MqEcnMarking m(base_config());
  EXPECT_DOUBLE_EQ(m.threshold_bytes(0), kStandardK);
}

TEST(MqEcn, FirstRoundCompletionOnlyStartsClock) {
  MqEcnMarking m(base_config());
  m.on_round_complete(1000);
  // One completion establishes the round start; no sample yet.
  EXPECT_DOUBLE_EQ(m.t_round_estimate(), 0.0);
}

TEST(MqEcn, EwmaConvergesToRoundDuration) {
  MqEcnMarking m(base_config());
  sim::TimeNs t = 0;
  for (int i = 0; i < 100; ++i) {
    m.on_round_complete(t);
    t += 3000;  // 3 us rounds
  }
  EXPECT_NEAR(m.t_round_estimate(), 3000.0, 50.0);
}

TEST(MqEcn, ThresholdDropsWhenRoundsSlow) {
  // A 2-queue port with 1500 B quanta and 3 us rounds drains each queue at
  // 1500 B / 3 us = 4 Gbps -> K_i = 4 Gbps * 80 us = 40 kB < standard.
  MqEcnMarking m(base_config());
  sim::TimeNs t = 0;
  for (int i = 0; i < 200; ++i) {
    m.on_round_complete(t);
    t += 3000;
  }
  EXPECT_NEAR(m.threshold_bytes(0), 40'000.0, 2'000.0);
}

TEST(MqEcn, DrainRateCappedAtLinkCapacity) {
  // Rounds faster than quantum/C would imply a super-line-rate drain; Eq. 3
  // caps at C so K never exceeds the standard threshold.
  MqEcnMarking m(base_config());
  sim::TimeNs t = 0;
  for (int i = 0; i < 200; ++i) {
    m.on_round_complete(t);
    t += 100;  // absurdly fast rounds
  }
  EXPECT_DOUBLE_EQ(m.threshold_bytes(0), kStandardK);
}

TEST(MqEcn, QuantumScalesPerQueueThreshold) {
  auto cfg = base_config();
  cfg.quantum_bytes = {1500.0, 3000.0};
  MqEcnMarking m(std::move(cfg));
  sim::TimeNs t = 0;
  for (int i = 0; i < 200; ++i) {
    m.on_round_complete(t);
    t += 4500;
  }
  EXPECT_NEAR(m.threshold_bytes(1) / m.threshold_bytes(0), 2.0, 0.01);
}

TEST(MqEcn, IdleResetRestoresStandardThreshold) {
  MqEcnMarking m(base_config());
  sim::TimeNs t = 0;
  for (int i = 0; i < 100; ++i) {
    m.on_round_complete(t);
    t += 5000;
  }
  ASSERT_LT(m.threshold_bytes(0), kStandardK);
  // Port drains and stays idle well past t_idle, then a packet arrives.
  m.on_port_activity(t + sim::milliseconds(1), /*port_was_empty=*/true);
  EXPECT_DOUBLE_EQ(m.threshold_bytes(0), kStandardK);
}

TEST(MqEcn, ShortIdleDoesNotReset) {
  MqEcnMarking m(base_config());
  sim::TimeNs t = 0;
  for (int i = 0; i < 100; ++i) {
    m.on_round_complete(t);
    t += 5000;
  }
  const double before = m.t_round_estimate();
  // The last activity was the round completion at t - 5000; stay within
  // t_idle (1.2 us) of it.
  m.on_port_activity(t - 5000 + 500, /*port_was_empty=*/true);
  EXPECT_DOUBLE_EQ(m.t_round_estimate(), before);
}

TEST(MqEcn, NonEmptyPortActivityNeverResets) {
  MqEcnMarking m(base_config());
  sim::TimeNs t = 0;
  for (int i = 0; i < 100; ++i) {
    m.on_round_complete(t);
    t += 5000;
  }
  const double before = m.t_round_estimate();
  m.on_port_activity(t + sim::seconds(1), /*port_was_empty=*/false);
  EXPECT_DOUBLE_EQ(m.t_round_estimate(), before);
}

TEST(MqEcn, MarksAgainstDynamicThreshold) {
  MqEcnMarking m(base_config());
  PortSnapshot s;
  s.queue = 0;
  s.queue_bytes = 50'000;
  // No round estimate: standard K = 100 kB, 50 kB does not mark.
  EXPECT_FALSE(m.should_mark(s, net::Packet{}, MarkPoint::kEnqueue, 0));
  // Slow rounds shrink K to 40 kB: the same queue now marks.
  sim::TimeNs t = 0;
  for (int i = 0; i < 200; ++i) {
    m.on_round_complete(t);
    t += 3000;
  }
  EXPECT_TRUE(m.should_mark(s, net::Packet{}, MarkPoint::kEnqueue, t));
}

TEST(MqEcn, RejectsEmptyQuanta) {
  MqEcnConfig cfg;
  cfg.quantum_bytes = {};
  EXPECT_THROW(MqEcnMarking{std::move(cfg)}, std::invalid_argument);
}
