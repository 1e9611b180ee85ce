// Unit tests for the per-queue, per-port and PMSB marking scheme adapters,
// plus the marking factory and Table I capability flags.
#include <gtest/gtest.h>

#include "ecn/factory.hpp"
#include "ecn/per_port.hpp"
#include "ecn/per_queue.hpp"
#include "ecn/pmsb_marking.hpp"
#include "ecn/tcn.hpp"
#include "ecn/mq_ecn.hpp"

using namespace pmsb;
using namespace pmsb::ecn;

namespace {
PortSnapshot snap(std::uint64_t port_bytes, std::uint64_t queue_bytes,
                  std::size_t queue = 0, double w = 1.0, double wsum = 1.0) {
  PortSnapshot s;
  s.port_bytes = port_bytes;
  s.queue_bytes = queue_bytes;
  s.queue = queue;
  s.weight = w;
  s.weight_sum = wsum;
  return s;
}
net::Packet pkt() { return net::Packet{}; }
}  // namespace

TEST(PerQueue, MarksOnQueueLengthOnly) {
  PerQueueMarking m({1000, 2000});
  EXPECT_FALSE(m.should_mark(snap(99999, 999, 0), pkt(), MarkPoint::kEnqueue, 0));
  EXPECT_TRUE(m.should_mark(snap(0, 1000, 0), pkt(), MarkPoint::kEnqueue, 0));
  EXPECT_FALSE(m.should_mark(snap(0, 1999, 1), pkt(), MarkPoint::kEnqueue, 0));
  EXPECT_TRUE(m.should_mark(snap(0, 2000, 1), pkt(), MarkPoint::kEnqueue, 0));
}

TEST(PerQueue, StandardThresholdsUniform) {
  const auto t = PerQueueMarking::standard_thresholds(4, 24000);
  ASSERT_EQ(t.size(), 4u);
  for (auto v : t) EXPECT_EQ(v, 24000u);
}

TEST(PerQueue, FractionalThresholdsSplitByWeight) {
  const auto t = PerQueueMarking::fractional_thresholds({1.0, 3.0}, 24000);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], 6000u);
  EXPECT_EQ(t[1], 18000u);
}

TEST(PerPort, MarksOnPortLengthOnly) {
  PerPortMarking m(5000);
  EXPECT_FALSE(m.should_mark(snap(4999, 0), pkt(), MarkPoint::kEnqueue, 0));
  EXPECT_TRUE(m.should_mark(snap(5000, 0), pkt(), MarkPoint::kEnqueue, 0));
  EXPECT_TRUE(m.should_mark(snap(9000, 1), pkt(), MarkPoint::kDequeue, 0));
}

TEST(PerPort, NoSwitchModificationNeeded) {
  PerPortMarking m(1);
  EXPECT_FALSE(m.requires_switch_modification());
}

TEST(NoMark, NeverMarks) {
  NoMarking m;
  EXPECT_FALSE(m.should_mark(snap(1u << 30, 1u << 30), pkt(), MarkPoint::kEnqueue, 0));
}

TEST(PmsbScheme, MatchesAlgorithmOne) {
  PmsbMarking m(6000);
  // Port below threshold: blind.
  EXPECT_FALSE(m.should_mark(snap(5999, 5999, 0, 1.0, 2.0), pkt(), MarkPoint::kEnqueue, 0));
  // Port above, queue above its half share (3000): mark.
  EXPECT_TRUE(m.should_mark(snap(6000, 3000, 0, 1.0, 2.0), pkt(), MarkPoint::kEnqueue, 0));
  // Port above, queue below share: selective blindness.
  EXPECT_FALSE(m.should_mark(snap(6000, 2999, 0, 1.0, 2.0), pkt(), MarkPoint::kEnqueue, 0));
}

TEST(PmsbScheme, FilterScaleAblation) {
  PmsbMarking aggressive(6000, 0.5);  // queue threshold halves
  EXPECT_TRUE(aggressive.should_mark(snap(6000, 1500, 0, 1.0, 2.0), pkt(),
                                     MarkPoint::kEnqueue, 0));
  PmsbMarking conservative(6000, 2.0);
  EXPECT_FALSE(conservative.should_mark(snap(6000, 3000, 0, 1.0, 2.0), pkt(),
                                        MarkPoint::kEnqueue, 0));
}

TEST(TableOne, CapabilityMatrix) {
  // The paper's Table I, queried from the scheme objects themselves.
  MqEcnConfig mc;
  mc.quantum_bytes = {1500.0};
  MqEcnMarking mqecn(std::move(mc));
  TcnMarking tcn(sim::microseconds(20));
  PmsbMarking pmsb(6000);
  PerPortMarking perport_for_pmsbe(6000);

  // Generic scheduler row: MQ-ECN x, TCN ok, PMSB ok, PMSB(e) ok.
  EXPECT_FALSE(mqecn.supports_generic());
  EXPECT_TRUE(tcn.supports_generic());
  EXPECT_TRUE(pmsb.supports_generic());
  EXPECT_TRUE(perport_for_pmsbe.supports_generic());

  // Round-based scheduler row: all support it.
  EXPECT_TRUE(mqecn.supports_round_based());
  EXPECT_TRUE(tcn.supports_round_based());
  EXPECT_TRUE(pmsb.supports_round_based());

  // Early notification row: MQ-ECN ok, TCN x, PMSB ok.
  EXPECT_TRUE(mqecn.early_notification());
  EXPECT_FALSE(tcn.early_notification());
  EXPECT_TRUE(pmsb.early_notification());

  // No-switch-modification row: only the per-port marking PMSB(e) rides on.
  EXPECT_TRUE(mqecn.requires_switch_modification());
  EXPECT_TRUE(tcn.requires_switch_modification());
  EXPECT_TRUE(pmsb.requires_switch_modification());
  EXPECT_FALSE(perport_for_pmsbe.requires_switch_modification());
}

TEST(MarkingFactory, BuildsEachKind) {
  MarkingConfig cfg;
  cfg.weights = {1.0, 1.0};
  cfg.threshold_bytes = 24000;
  for (auto kind : {MarkingKind::kNone, MarkingKind::kPerQueueStandard,
                    MarkingKind::kPerQueueFractional, MarkingKind::kPerPort,
                    MarkingKind::kMqEcn, MarkingKind::kTcn, MarkingKind::kPmsb}) {
    cfg.kind = kind;
    auto scheme = make_marking(cfg);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name().empty(), false);
  }
}

TEST(MarkingFactory, TcnForcesDequeuePoint) {
  MarkingConfig cfg;
  cfg.kind = MarkingKind::kTcn;
  cfg.point = MarkPoint::kEnqueue;
  EXPECT_EQ(effective_mark_point(cfg), MarkPoint::kDequeue);
  cfg.kind = MarkingKind::kPmsb;
  EXPECT_EQ(effective_mark_point(cfg), MarkPoint::kEnqueue);
}

TEST(MarkingFactory, MqEcnRequiresWeights) {
  MarkingConfig cfg;
  cfg.kind = MarkingKind::kMqEcn;
  cfg.weights.clear();
  EXPECT_THROW(make_marking(cfg), std::invalid_argument);
}
