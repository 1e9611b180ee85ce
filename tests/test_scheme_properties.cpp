// Parameterized cross-scheme properties: every marking scheme, run in the
// same saturated two-queue dumbbell, must (a) keep the link utilised,
// (b) avoid drops, and (c) — for the fairness-preserving schemes — keep the
// weighted share. This is the paper's three-metric frame (throughput,
// latency, scheduling policy) as an executable property.
#include <gtest/gtest.h>

#include "experiments/dumbbell.hpp"
#include "experiments/presets.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

struct SchemeCase {
  Scheme scheme;
  sched::SchedulerKind sched;
  bool expect_fair;  ///< preserves 1:1 weighted sharing under 1-vs-8 flows
};

std::string scheme_case_name(const testing::TestParamInfo<SchemeCase>& info) {
  std::string n = scheme_name(info.param.scheme) + "_" +
                  sched::scheduler_kind_name(info.param.sched);
  std::string out;
  for (char c : n) out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return out + "_" + std::to_string(info.index);
}

}  // namespace

class SchemeProperty : public testing::TestWithParam<SchemeCase> {};

TEST_P(SchemeProperty, ThroughputDropsAndFairness) {
  const auto& c = GetParam();
  DumbbellConfig cfg;
  cfg.num_senders = 9;
  cfg.link_rate = sim::gbps(10);
  cfg.link_delay = sim::microseconds(2);
  cfg.scheduler.kind = c.sched;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds(18);
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(c.scheme, params);
  apply_scheme_transport(c.scheme, params, sim::microseconds(11), cfg.transport);

  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
               .pmsbe = cfg.transport.pmsbe_enabled,
               .pmsbe_rtt_threshold = cfg.transport.pmsbe_rtt_threshold});
  for (std::size_t i = 1; i <= 8; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0,
                 .pmsbe = cfg.transport.pmsbe_enabled,
                 .pmsbe_rtt_threshold = cfg.transport.pmsbe_rtt_threshold});
  }
  sc.run(sim::milliseconds(10));
  const auto s0 = sc.served_bytes(0);
  const auto s1 = sc.served_bytes(1);
  sc.run(sim::milliseconds(60));
  const double d0 = static_cast<double>(sc.served_bytes(0) - s0);
  const double d1 = static_cast<double>(sc.served_bytes(1) - s1);
  const double total_gbps = (d0 + d1) * 8.0 / static_cast<double>(sim::milliseconds(50));

  // (a) High throughput for every scheme.
  EXPECT_GT(total_gbps, 9.0) << scheme_name(c.scheme);
  // (b) ECN keeps the buffer under control: no drops.
  EXPECT_EQ(sc.bottleneck().stats().dropped_packets, 0u) << scheme_name(c.scheme);
  // (c) Weighted fair sharing where the scheme promises it.
  if (c.expect_fair) {
    EXPECT_NEAR(d0 / (d0 + d1), 0.5, 0.1) << scheme_name(c.scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeProperty,
    testing::Values(
        // Fairness-preserving schemes on a round-based scheduler.
        SchemeCase{Scheme::kPmsb, sched::SchedulerKind::kDwrr, true},
        SchemeCase{Scheme::kPmsbE, sched::SchedulerKind::kDwrr, true},
        SchemeCase{Scheme::kMqEcn, sched::SchedulerKind::kDwrr, true},
        SchemeCase{Scheme::kTcn, sched::SchedulerKind::kDwrr, true},
        SchemeCase{Scheme::kPerQueueStd, sched::SchedulerKind::kDwrr, true},
        // Generic scheduler (WFQ): MQ-ECN excluded by design.
        SchemeCase{Scheme::kPmsb, sched::SchedulerKind::kWfq, true},
        SchemeCase{Scheme::kPmsbE, sched::SchedulerKind::kWfq, true},
        SchemeCase{Scheme::kTcn, sched::SchedulerKind::kWfq, true},
        // Per-port marking: throughput fine, fairness NOT expected.
        SchemeCase{Scheme::kPerPort, sched::SchedulerKind::kDwrr, false}),
    scheme_case_name);

TEST(SchemePresets, StandardKMatchesEq1) {
  SchemeParams p;
  p.capacity = sim::gbps(10);
  p.rtt = sim::microseconds(78);
  EXPECT_EQ(standard_k_bytes(p), 97'500u);  // 65 packets
}

TEST(SchemePresets, TcnThresholdIsRttLambda) {
  SchemeParams p;
  p.rtt = sim::microseconds(78);
  const auto m = make_scheme_marking(Scheme::kTcn, p);
  EXPECT_EQ(m.sojourn_threshold, sim::microseconds(78));
  EXPECT_EQ(m.kind, ecn::MarkingKind::kTcn);
}

TEST(SchemePresets, PmsbEUsesPerPortSwitchSide) {
  SchemeParams p;
  const auto m = make_scheme_marking(Scheme::kPmsbE, p);
  EXPECT_EQ(m.kind, ecn::MarkingKind::kPerPort);
  EXPECT_EQ(m.threshold_bytes, pmsb_port_threshold_bytes(p));
}
