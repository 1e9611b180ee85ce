// Tests for the shared buffer pool byte ledger, the pluggable admission
// policies, per-service-pool marking, and the cross-port interference the
// paper predicts for the pool mode (§II.B).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "ecn/per_pool.hpp"
#include "experiments/multiport.hpp"
#include "switchlib/buffer_policy.hpp"
#include "switchlib/buffer_pool.hpp"

using namespace pmsb;
using namespace pmsb::switchlib;

TEST(BufferPool, ChargeAndRelease) {
  BufferPool pool(10'000);
  const auto a = pool.register_slot();
  const auto b = pool.register_slot();
  pool.charge(a, 6'000);
  EXPECT_EQ(pool.bytes(), 6'000u);
  EXPECT_EQ(pool.free_bytes(), 4'000u);
  pool.charge(b, 4'000);
  EXPECT_EQ(pool.free_bytes(), 0u);
  pool.release(a, 6'000);
  pool.release(b, 4'000);
  EXPECT_EQ(pool.bytes(), 0u);
  EXPECT_EQ(pool.slot_bytes(a), 0u);
  EXPECT_EQ(pool.slot_bytes(b), 0u);
}

TEST(BufferPool, OverchargeThrows) {
  BufferPool pool(1'000);
  const auto s = pool.register_slot();
  pool.charge(s, 1'000);
  EXPECT_THROW(pool.charge(s, 1), std::logic_error);
  EXPECT_EQ(pool.bytes(), 1'000u);  // failed charge left the ledger intact
}

TEST(BufferPool, OverReleaseThrows) {
  BufferPool pool(10'000);
  const auto a = pool.register_slot();
  const auto b = pool.register_slot();
  pool.charge(a, 500);
  pool.charge(b, 500);
  // Slot b only holds 500 even though the pool holds 1000: releasing more
  // than the SLOT charged must throw (no cross-slot laundering).
  EXPECT_THROW(pool.release(b, 501), std::logic_error);
  EXPECT_EQ(pool.bytes(), 1'000u);
}

// Property test: a randomized admit/release/flap schedule against a model of
// per-slot outstanding chunks. After every operation the ledger invariants
// hold: byte conservation (sum of slot occupancies == pool occupancy ==
// limit - free), no overcommit, no negative occupancy.
TEST(BufferPoolProperty, RandomizedLedgerConservation) {
  std::mt19937_64 rng(0xb0ffe7);
  constexpr std::uint64_t kLimit = 64 * 1500;
  BufferPool pool(kLimit);
  constexpr std::size_t kSlots = 5;
  std::vector<BufferPool::SlotId> slots;
  std::vector<std::vector<std::uint64_t>> outstanding(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) slots.push_back(pool.register_slot());

  std::uniform_int_distribution<std::size_t> pick_slot(0, kSlots - 1);
  std::uniform_int_distribution<std::uint64_t> pick_size(1, 1500);
  std::uniform_int_distribution<int> pick_op(0, 2);

  auto check_invariants = [&] {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      std::uint64_t model = 0;
      for (std::uint64_t c : outstanding[s]) model += c;
      ASSERT_EQ(pool.slot_bytes(slots[s]), model);
      sum += model;
    }
    ASSERT_EQ(pool.bytes(), sum);                    // conservation
    ASSERT_LE(pool.bytes(), pool.limit());           // no overcommit
    ASSERT_EQ(pool.free_bytes(), kLimit - sum);      // free never wraps
  };

  for (int step = 0; step < 20'000; ++step) {
    const std::size_t s = pick_slot(rng);
    const int op = pick_op(rng);
    if (op == 0) {  // admit: charge iff it fits, as a policy would decide
      const std::uint64_t size = pick_size(rng);
      if (size <= pool.free_bytes()) {
        pool.charge(slots[s], size);
        outstanding[s].push_back(size);
      }
    } else if (op == 1) {  // release one outstanding chunk
      if (!outstanding[s].empty()) {
        std::uniform_int_distribution<std::size_t> pick_chunk(
            0, outstanding[s].size() - 1);
        const std::size_t c = pick_chunk(rng);
        pool.release(slots[s], outstanding[s][c]);
        outstanding[s].erase(outstanding[s].begin() +
                             static_cast<std::ptrdiff_t>(c));
      }
    } else {  // flap: charge then immediately release (enqueue/dequeue churn)
      const std::uint64_t size = pick_size(rng);
      if (size <= pool.free_bytes()) {
        pool.charge(slots[s], size);
        pool.release(slots[s], size);
      }
    }
    check_invariants();
  }

  // Drain everything: the ledger must return exactly to empty.
  for (std::size_t s = 0; s < kSlots; ++s) {
    for (std::uint64_t c : outstanding[s]) pool.release(slots[s], c);
  }
  EXPECT_EQ(pool.bytes(), 0u);
  EXPECT_EQ(pool.free_bytes(), kLimit);
}

// --- Admission policy units -----------------------------------------------

namespace {

AdmissionRequest req(std::uint64_t pkt, std::uint64_t port_bytes,
                     std::uint64_t budget, const BufferPool* pool = nullptr) {
  return {.packet_bytes = pkt, .port_bytes = port_bytes, .port_budget = budget,
          .pool = pool};
}

}  // namespace

TEST(BufferPolicy, StaticPerPortMatchesLegacyDropTail) {
  auto policy = make_buffer_policy({.kind = BufferPolicyKind::kStaticPerPort});
  EXPECT_EQ(policy->admit(req(1500, 0, 3000)), std::nullopt);
  EXPECT_EQ(policy->admit(req(1500, 1500, 3000)), std::nullopt);  // exactly fits
  EXPECT_EQ(policy->admit(req(1500, 1501, 3000)), DropReason::kPortBudget);
  // With a pool attached, overflow is refused as kPoolExhausted.
  BufferPool pool(2000);
  const auto s = pool.register_slot();
  pool.charge(s, 1000);
  EXPECT_EQ(policy->admit(req(1000, 0, 1'000'000, &pool)), std::nullopt);
  EXPECT_EQ(policy->admit(req(1001, 0, 1'000'000, &pool)),
            DropReason::kPoolExhausted);
}

TEST(BufferPolicy, EqualDivisionSharesThePool) {
  auto policy =
      make_buffer_policy({.kind = BufferPolicyKind::kStaticEqualDivision});
  BufferPool pool(8'000);
  const auto a = pool.register_slot();
  [[maybe_unused]] const auto b = pool.register_slot();  // share = 4000 each
  EXPECT_EQ(policy->admit(req(4'000, 0, 1'000'000, &pool)), std::nullopt);
  EXPECT_EQ(policy->admit(req(1, 4'000, 1'000'000, &pool)),
            DropReason::kEqualShare);
  EXPECT_EQ(policy->threshold_bytes(req(0, 0, 1'000'000, &pool)), 4'000u);
  // Pool overflow trumps nothing here: the share binds first, but a pool
  // already filled by the OTHER slot refuses with kPoolExhausted.
  pool.charge(a, 7'000);
  EXPECT_EQ(policy->admit(req(2'000, 500, 1'000'000, &pool)),
            DropReason::kPoolExhausted);
  // Without a pool the policy degrades to the static budget check.
  EXPECT_EQ(policy->admit(req(1500, 0, 1000)), DropReason::kPortBudget);
}

TEST(BufferPolicy, DynamicThresholdTracksFreePool) {
  auto policy = make_buffer_policy(
      {.kind = BufferPolicyKind::kDynamicThresholds, .dt_alpha = 1.0});
  BufferPool pool(10'000);
  const auto other = pool.register_slot();
  // Empty pool: a 1500B arrival to an empty port is within alpha * 10000.
  EXPECT_EQ(policy->admit(req(1500, 0, 1'000'000, &pool)), std::nullopt);
  // Another port hogs the pool; free = 1000, so 1500 > 1.0 * 1000 refuses.
  pool.charge(other, 9'000);
  EXPECT_EQ(policy->admit(req(1500, 0, 1'000'000, &pool)),
            DropReason::kDynamicThreshold);
  EXPECT_EQ(policy->admit(req(1'000, 0, 1'000'000, &pool)), std::nullopt);
}

TEST(BufferPolicy, DtAlphaRejectsNonPositive) {
  EXPECT_THROW(make_buffer_policy({.kind = BufferPolicyKind::kDynamicThresholds,
                                   .dt_alpha = 0.0}),
               std::invalid_argument);
}

// DT monotonicity property: as the pool drains (occupancy grows), the DT
// allowance is nonincreasing — the self-regulating property that makes
// Choudhury-Hahne thresholds stable.
TEST(BufferPolicyProperty, DtThresholdMonotoneAsPoolFills) {
  for (double alpha : {0.25, 0.5, 1.0, 2.0, 8.0}) {
    auto policy = make_buffer_policy(
        {.kind = BufferPolicyKind::kDynamicThresholds, .dt_alpha = alpha});
    BufferPool pool(100 * 1500);
    const auto hog = pool.register_slot();
    std::uint64_t prev = policy->threshold_bytes(req(0, 0, 1ull << 40, &pool));
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<std::uint64_t> step(1, 1500);
    while (pool.free_bytes() > 0) {
      pool.charge(hog, std::min<std::uint64_t>(step(rng), pool.free_bytes()));
      const std::uint64_t now =
          policy->threshold_bytes(req(0, 0, 1ull << 40, &pool));
      ASSERT_LE(now, prev) << "alpha=" << alpha;
      prev = now;
    }
    EXPECT_EQ(prev, 0u);  // exhausted pool -> zero allowance
  }
}

TEST(BufferPolicy, ParseNames) {
  EXPECT_EQ(parse_buffer_policy_kind("static"), BufferPolicyKind::kStaticPerPort);
  EXPECT_EQ(parse_buffer_policy_kind("equal"),
            BufferPolicyKind::kStaticEqualDivision);
  EXPECT_EQ(parse_buffer_policy_kind("dt"), BufferPolicyKind::kDynamicThresholds);
  EXPECT_THROW((void)parse_buffer_policy_kind("bogus"), std::invalid_argument);
}

TEST(PerPoolMarking, UsesPoolOccupancy) {
  ecn::PerPoolMarking m(5'000);
  ecn::PortSnapshot snap;
  snap.has_pool = true;
  snap.pool_bytes = 4'999;
  snap.port_bytes = 999'999;  // irrelevant when a pool exists
  EXPECT_FALSE(m.should_mark(snap, {}, ecn::MarkPoint::kEnqueue, 0));
  snap.pool_bytes = 5'000;
  EXPECT_TRUE(m.should_mark(snap, {}, ecn::MarkPoint::kEnqueue, 0));
}

TEST(PerPoolMarking, FallsBackToPortWithoutPool) {
  ecn::PerPoolMarking m(5'000);
  ecn::PortSnapshot snap;
  snap.has_pool = false;
  snap.port_bytes = 5'000;
  EXPECT_TRUE(m.should_mark(snap, {}, ecn::MarkPoint::kEnqueue, 0));
}

namespace {

experiments::MultiPortConfig pool_config(std::uint64_t pool_threshold_pkts) {
  experiments::MultiPortConfig cfg;
  cfg.num_senders = 9;
  cfg.num_receivers = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = ecn::MarkingKind::kPerPool;
  cfg.marking.threshold_bytes = pool_threshold_pkts * 1500;
  cfg.shared_pool_bytes = 4096ull * 1500ull;
  return cfg;
}

}  // namespace

TEST(PoolIsolation, CrossPortInterferenceUnderPerPoolMarking) {
  // Port A: 8 flows; port B: 1 flow. Both ports could run at 10G (separate
  // egress links!) but per-pool marking lets A's buffer occupancy mark B's
  // packets, so B loses throughput — the paper's §II.B conjecture.
  experiments::MultiPortScenario sc(pool_config(16));
  for (std::size_t i = 0; i < 8; ++i) {
    sc.add_flow({.sender = i, .receiver = 0, .service = 0, .bytes = 0, .start = 0});
  }
  sc.add_flow({.sender = 8, .receiver = 1, .service = 0, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(10));
  const auto b0 = sc.served_bytes(1, 0);
  sc.run(sim::milliseconds(50));
  const double gbps_b = static_cast<double>(sc.served_bytes(1, 0) - b0) * 8.0 /
                        static_cast<double>(sim::milliseconds(40));
  EXPECT_LT(gbps_b, 9.0);  // clearly below its private 10G
}

TEST(PoolIsolation, PmsbPerPortKeepsPortsIndependent) {
  // Same topology, but each port marks with PMSB against its own buffer:
  // port B's lone flow keeps (nearly) line rate.
  auto cfg = pool_config(16);
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = {1.0};
  experiments::MultiPortScenario sc(cfg);
  for (std::size_t i = 0; i < 8; ++i) {
    sc.add_flow({.sender = i, .receiver = 0, .service = 0, .bytes = 0, .start = 0});
  }
  sc.add_flow({.sender = 8, .receiver = 1, .service = 0, .bytes = 0, .start = 0});
  sc.run(sim::milliseconds(10));
  const auto b0 = sc.served_bytes(1, 0);
  sc.run(sim::milliseconds(50));
  const double gbps_b = static_cast<double>(sc.served_bytes(1, 0) - b0) * 8.0 /
                        static_cast<double>(sim::milliseconds(40));
  EXPECT_GT(gbps_b, 9.3);
}

TEST(PoolAdmission, PoolExhaustionDropsAcrossPorts) {
  // A pool smaller than one port's appetite forces drops even though the
  // per-port budgets are large.
  auto cfg = pool_config(1'000'000);
  cfg.marking.kind = ecn::MarkingKind::kNone;
  cfg.shared_pool_bytes = 8 * 1500;
  experiments::MultiPortScenario sc(cfg);
  for (std::size_t i = 0; i < 8; ++i) {
    sc.add_flow({.sender = i, .receiver = 0, .service = 0,
                 .bytes = 200'000, .start = 0});
  }
  sc.run(sim::seconds(2));
  EXPECT_GT(sc.receiver_port(0).stats().dropped_packets, 0u);
}
