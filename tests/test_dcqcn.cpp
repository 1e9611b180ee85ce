// Tests for the DCQCN rate-based transport and its interaction with
// per-port vs PMSB marking (the paper's victim story for RDMA traffic).
#include <gtest/gtest.h>

#include "experiments/dumbbell.hpp"
#include "faults/invariants.hpp"
#include "transport/dcqcn.hpp"

using namespace pmsb;
using namespace pmsb::experiments;
using transport::DcqcnConfig;
using transport::DcqcnFlow;
using transport::DcqcnFlowTable;

namespace {

// DumbbellScenario owns DCTCP flows; for DCQCN we use its topology and put
// the flows in a DcqcnFlowTable, which becomes the hosts' flow demux.
DumbbellConfig fabric(std::size_t senders, ecn::MarkingKind kind,
                      std::uint64_t threshold_pkts, std::size_t queues = 1) {
  DumbbellConfig cfg;
  cfg.num_senders = senders;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = queues;
  cfg.scheduler.weights.assign(queues, 1.0);
  cfg.marking.kind = kind;
  cfg.marking.threshold_bytes = threshold_pkts * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  return cfg;
}

}  // namespace

TEST(Dcqcn, StartsAtLineRateAndDeliversMessage) {
  DumbbellScenario sc(fabric(1, ecn::MarkingKind::kNone, 0));
  DcqcnConfig cfg;
  DcqcnFlowTable flows;
  DcqcnFlow& flow =
      flows.add(sc.simulator(), sc.sender(0), sc.receiver(), 500, 0, 1'000'000, cfg);
  sim::TimeNs done_at = 0;
  flow.receiver().set_completion_callback([&](sim::TimeNs t) { done_at = t; });
  flow.start(0);
  sc.run(sim::milliseconds(10));
  EXPECT_TRUE(flow.receiver().complete());
  EXPECT_EQ(flow.receiver().bytes_received(), 1'000'000u);
  // 1 MB at ~10G is ~0.8 ms plus propagation.
  EXPECT_LT(done_at, sim::milliseconds(2));
}

TEST(Dcqcn, CnpCutsRateAndRaisesAlpha) {
  DumbbellScenario sc(fabric(1, ecn::MarkingKind::kNone, 0));
  DcqcnConfig cfg;
  transport::DcqcnSender sender(sc.simulator(), sc.sender(0), sc.receiver().id(), 501,
                                0, 0, cfg);
  sender.start(0);
  sc.run(sim::milliseconds(1));
  const double before = sender.current_rate_bps();
  const double alpha_before = sender.alpha();
  sender.on_cnp();
  EXPECT_LT(sender.current_rate_bps(), before);
  EXPECT_GE(sender.alpha(), alpha_before * (1.0 - cfg.g));
  EXPECT_EQ(sender.stats().rate_cuts, 1u);
}

TEST(Dcqcn, RateRecoversAfterCongestionClears) {
  DumbbellScenario sc(fabric(1, ecn::MarkingKind::kNone, 0));
  DcqcnConfig cfg;
  transport::DcqcnSender sender(sc.simulator(), sc.sender(0), sc.receiver().id(), 502,
                                0, 0, cfg);
  sender.start(0);
  sc.run(sim::milliseconds(1));
  for (int i = 0; i < 10; ++i) sender.on_cnp();
  const double cut_rate = sender.current_rate_bps();
  ASSERT_LT(cut_rate, static_cast<double>(cfg.line_rate) / 2);
  sc.run(sim::milliseconds(30));  // no further CNPs
  EXPECT_GT(sender.current_rate_bps(), static_cast<double>(cfg.line_rate) * 0.9);
}

TEST(Dcqcn, MarkingThrottlesSendersToLinkShare) {
  // Two DCQCN flows into one 10G port with per-port marking: rates converge
  // near 5G each and the buffer stays bounded.
  DumbbellScenario sc(fabric(2, ecn::MarkingKind::kPerPort, 16));
  DcqcnConfig cfg;
  DcqcnFlowTable flows;
  DcqcnFlow& f0 = flows.add(sc.simulator(), sc.sender(0), sc.receiver(), 510, 0, 0, cfg);
  DcqcnFlow& f1 = flows.add(sc.simulator(), sc.sender(1), sc.receiver(), 511, 0, 0, cfg);
  f0.start(0);
  f1.start(0);
  sc.run(sim::milliseconds(30));
  EXPECT_GT(f0.receiver().cnps_sent() + f1.receiver().cnps_sent(), 10u);
  const double r0 = f0.sender().current_rate_bps();
  const double r1 = f1.sender().current_rate_bps();
  EXPECT_LT(r0 + r1, 12e9);  // throttled near the 10G bottleneck
  EXPECT_GT(r0 + r1, 7e9);
  EXPECT_EQ(sc.bottleneck().stats().dropped_packets, 0u);
}

TEST(Dcqcn, PmsbProtectsVictimRdmaFlow) {
  // The paper's victim story with a rate-based transport: queue 0 has one
  // DCQCN flow, queue 1 has six. Per-port marking starves the loner; PMSB
  // restores the weighted share.
  auto run_share = [&](ecn::MarkingKind kind, std::uint64_t threshold_pkts) {
    DumbbellScenario sc(fabric(7, kind, threshold_pkts, 2));
    DcqcnConfig cfg;
    DcqcnFlowTable flows;
    for (std::size_t i = 0; i < 7; ++i) {
      const net::ServiceId service = i == 0 ? 0 : 1;
      flows.add(sc.simulator(), sc.sender(i), sc.receiver(),
                static_cast<net::FlowId>(600 + i), service, 0, cfg)
          .start(0);
    }
    sc.run(sim::milliseconds(15));
    const auto q0 = sc.served_bytes(0);
    const auto q1 = sc.served_bytes(1);
    sc.run(sim::milliseconds(60));
    const double d0 = static_cast<double>(sc.served_bytes(0) - q0);
    const double d1 = static_cast<double>(sc.served_bytes(1) - q1);
    return d0 / (d0 + d1);
  };
  const double perport_share = run_share(ecn::MarkingKind::kPerPort, 16);
  const double pmsb_share = run_share(ecn::MarkingKind::kPmsb, 12);
  EXPECT_LT(perport_share, 0.45);         // victimised
  EXPECT_NEAR(pmsb_share, 0.5, 0.07);     // protected
}

TEST(Dcqcn, ConservationBalancesWithTheFlowTableAsDemux) {
  // The table replaces the fabric as both hosts' demux: every packet a host
  // receives is delivered to a DCQCN endpoint, and the fabric's invariants
  // (packet conservation among them) hold throughout the run.
  DumbbellScenario sc(fabric(2, ecn::MarkingKind::kPerPort, 16));
  faults::InvariantChecker checker(sc.simulator());
  sc.install_invariants(checker);
  checker.start_periodic(sim::microseconds(100));
  DcqcnConfig cfg;
  DcqcnFlowTable flows;
  DcqcnFlow& f0 = flows.add(sc.simulator(), sc.sender(0), sc.receiver(), 520, 0, 0, cfg);
  DcqcnFlow& f1 = flows.add(sc.simulator(), sc.sender(1), sc.receiver(), 521, 0, 0, cfg);
  f0.start(0);
  f1.start(0);
  sc.run(sim::milliseconds(20));
  checker.check_now();
  EXPECT_GT(checker.evaluations(), 100u);
  EXPECT_TRUE(checker.clean()) << checker.summary();
  EXPECT_GT(f0.receiver().cnps_sent() + f1.receiver().cnps_sent(), 0u);
  for (net::Host* host : {&sc.sender(0), &sc.sender(1), &sc.receiver()}) {
    EXPECT_GT(host->delivered_packets(), 0u) << host->name();
    EXPECT_EQ(host->dropped_no_handler(), 0u) << host->name();
  }
}
