// Differential property tests: scheme implementations that are supposed to
// coincide on sub-domains must actually coincide, checked over thousands of
// random buffer states — plus the PMSB x Dynamic-Thresholds interaction,
// where the admission policy governs the very occupancy PMSB judges.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/pmsb_algorithm.hpp"
#include "ecn/mq_ecn.hpp"
#include "ecn/per_port.hpp"
#include "ecn/per_queue.hpp"
#include "ecn/pmsb_marking.hpp"
#include "experiments/multiport.hpp"
#include "sim/rng.hpp"
#include "switchlib/buffer_policy.hpp"

using namespace pmsb;
using namespace pmsb::ecn;

namespace {
PortSnapshot random_snapshot(sim::Rng& rng, std::size_t queues) {
  PortSnapshot s;
  s.num_queues = queues;
  s.queue = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(queues) - 1));
  s.port_bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 200'000));
  s.queue_bytes = std::min<std::uint64_t>(
      s.port_bytes, static_cast<std::uint64_t>(rng.uniform_int(0, 200'000)));
  s.weight = rng.uniform(0.25, 4.0);
  s.weight_sum = s.weight + rng.uniform(0.25, 12.0);
  return s;
}
}  // namespace

TEST(Differential, PmsbAdapterEqualsPureFunction) {
  sim::Rng rng(101);
  PmsbMarking scheme(18'000, 1.3);
  for (int i = 0; i < 20'000; ++i) {
    const auto snap = random_snapshot(rng, 8);
    EXPECT_EQ(scheme.should_mark(snap, {}, MarkPoint::kEnqueue, i),
              core::pmsb_should_mark(snap.port_bytes, 18'000, snap.queue_bytes,
                                     snap.weight, snap.weight_sum, 1.3))
        << "iteration " << i;
  }
}

TEST(Differential, PmsbSingleQueueEqualsPerPort) {
  sim::Rng rng(102);
  PmsbMarking pmsb(24'000);
  PerPortMarking perport(24'000);
  for (int i = 0; i < 20'000; ++i) {
    auto snap = random_snapshot(rng, 1);
    snap.queue = 0;
    snap.weight = 1.0;
    snap.weight_sum = 1.0;
    snap.queue_bytes = snap.port_bytes;  // single queue holds everything
    EXPECT_EQ(pmsb.should_mark(snap, {}, MarkPoint::kEnqueue, i),
              perport.should_mark(snap, {}, MarkPoint::kEnqueue, i));
  }
}

TEST(Differential, MqEcnWithoutRoundsEqualsPerQueueStandard) {
  sim::Rng rng(103);
  MqEcnConfig mc;
  mc.quantum_bytes = {1500.0, 1500.0};
  mc.capacity = sim::gbps(10);
  mc.rtt = sim::microseconds(80);
  MqEcnMarking mqecn(std::move(mc));  // never fed a round sample
  const std::uint64_t k = 100'000;    // C * RTT
  PerQueueMarking perqueue(PerQueueMarking::standard_thresholds(2, k));
  for (int i = 0; i < 20'000; ++i) {
    const auto snap = random_snapshot(rng, 2);
    EXPECT_EQ(mqecn.should_mark(snap, {}, MarkPoint::kEnqueue, i),
              perqueue.should_mark(snap, {}, MarkPoint::kEnqueue, i));
  }
}

TEST(Differential, PmsbIsMonotoneInQueueLength) {
  // For fixed port state, marking must be monotone: if a queue length marks,
  // any longer queue also marks.
  PmsbMarking scheme(18'000);
  PortSnapshot snap;
  snap.port_bytes = 30'000;
  snap.weight = 1.0;
  snap.weight_sum = 3.0;
  bool prev = false;
  for (std::uint64_t q = 0; q <= 30'000; q += 500) {
    snap.queue_bytes = q;
    const bool mark = scheme.should_mark(snap, {}, MarkPoint::kEnqueue, 0);
    EXPECT_TRUE(!prev || mark) << "non-monotone at " << q;
    prev = mark;
  }
}

TEST(Differential, PmsbIsMonotoneInPortLength) {
  PmsbMarking scheme(18'000);
  PortSnapshot snap;
  snap.queue_bytes = 10'000;
  snap.weight = 1.0;
  snap.weight_sum = 2.0;
  bool prev = false;
  for (std::uint64_t p = 0; p <= 60'000; p += 500) {
    snap.port_bytes = p;
    const bool mark = scheme.should_mark(snap, {}, MarkPoint::kEnqueue, 0);
    EXPECT_TRUE(!prev || mark) << "non-monotone at " << p;
    prev = mark;
  }
}

// ---------------------------------------------------------------------------
// PMSB under Dynamic Thresholds: the admission policy caps the occupancy
// that PMSB's port threshold judges, so the two interact end to end.

namespace {

struct PmsbDtOutcome {
  double mark_fraction = 0.0;       ///< enqueue marks / enqueued packets
  std::uint64_t suppressed = 0;     ///< selective-blindness suppressions
  std::uint64_t dt_drops = 0;       ///< admissions refused by DT
};

/// One 8-flows-into-one-port run with PMSB marking (K = 8 pkts) under a
/// DT-governed shared buffer (64-pkt pool), at the given alpha. Seven flows
/// load queue 0; one flow keeps queue 1 sparse so the per-queue filter has
/// packets to spare (selective blindness).
PmsbDtOutcome run_pmsb_under_dt(double alpha) {
  experiments::MultiPortConfig cfg;
  cfg.num_senders = 8;
  cfg.num_receivers = 1;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 8 * 1500;
  cfg.marking.weights = {1.0, 1.0};
  cfg.buffer_bytes = 4096ull * 1500ull;  // static budget never binds
  cfg.shared_pool_bytes = 64 * 1500;
  cfg.buffer_policy = {.kind = switchlib::BufferPolicyKind::kDynamicThresholds,
                       .dt_alpha = alpha};
  experiments::MultiPortScenario sc(cfg);
  for (std::size_t i = 0; i < 7; ++i) {
    sc.add_flow({.sender = i, .receiver = 0, .service = 0, .bytes = 0, .start = 0});
  }
  sc.add_flow({.sender = 7, .receiver = 0, .service = 1, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(50));

  const switchlib::PortStats& stats = sc.receiver_port(0).stats();
  auto& pmsb = dynamic_cast<PmsbMarking&>(sc.receiver_port(0).marking());
  PmsbDtOutcome out;
  if (stats.enqueued_packets > 0) {
    out.mark_fraction = static_cast<double>(stats.marked_enqueue) /
                        static_cast<double>(stats.enqueued_packets);
  }
  out.suppressed = pmsb.suppressed_by_blindness();
  out.dt_drops = stats.dropped_by_reason[static_cast<std::size_t>(
      switchlib::DropReason::kDynamicThreshold)];
  return out;
}

}  // namespace

TEST(PmsbUnderDt, MarksTrackTheDtGovernedOccupancy) {
  // PMSB's port threshold judges an occupancy that DT now governs: the DT
  // equilibrium cap is alpha/(1+alpha) * pool. Shrinking alpha pulls that
  // cap down toward (and below) K, so the ECN signal fades and DT drops
  // take over as the congestion response — marking tracks the cap, not the
  // offered load. (Measured: alpha 0.14 pins the cap below K = 8 pkts of
  // the 64-pkt pool and marking goes fully blind.)
  const PmsbDtOutcome pinned = run_pmsb_under_dt(0.14);   // cap < K
  const PmsbDtOutcome grazing = run_pmsb_under_dt(0.18);  // cap just over K
  const PmsbDtOutcome tight = run_pmsb_under_dt(0.25);
  const PmsbDtOutcome loose = run_pmsb_under_dt(1.0);     // DCTCP-governed
  // Mark fraction falls monotonically as alpha shrinks...
  EXPECT_GT(loose.mark_fraction, tight.mark_fraction);
  EXPECT_GT(tight.mark_fraction, grazing.mark_fraction);
  EXPECT_GT(grazing.mark_fraction, 0.0);
  EXPECT_EQ(pinned.mark_fraction, 0.0);  // cap below K: PMSB fully blind
  // ...while DT admission drops rise to replace the lost ECN signal.
  EXPECT_GT(pinned.dt_drops, tight.dt_drops);
  EXPECT_GT(tight.dt_drops, loose.dt_drops);
  EXPECT_GT(loose.dt_drops, 0u);
}

TEST(PmsbUnderDt, SelectiveBlindnessStillFiresUnderSharedBufferPressure) {
  // Even with DT actively refusing admissions (shared-buffer pressure), the
  // per-queue filter must keep sparing the sparse queue's packets — the
  // paper's selective blindness survives the buffer-management layer.
  const PmsbDtOutcome tight = run_pmsb_under_dt(0.25);
  EXPECT_GT(tight.dt_drops, 0u);
  EXPECT_GT(tight.suppressed, 0u);
}
