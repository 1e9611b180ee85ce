// Unit tests for WRR and DWRR, including round-completion reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sched/dwrr.hpp"
#include "sched/wrr.hpp"

using namespace pmsb;
using namespace pmsb::sched;

namespace {
Packet pkt(std::uint32_t size = 1500) {
  Packet p;
  p.size_bytes = size;
  return p;
}
}  // namespace

TEST(Wrr, RoundBasedFlag) {
  WrrScheduler s(2);
  EXPECT_TRUE(s.round_based());
}

TEST(Wrr, ServesPacketsProportionallyToWeights) {
  WrrScheduler s(2, {1.0, 3.0});
  for (int i = 0; i < 400; ++i) s.enqueue(i % 2, pkt());
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 200; ++i) ++counts[s.dequeue(0)->queue];
  // 1:3 service ratio.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.2);
}

TEST(Wrr, SkipsEmptyQueues) {
  WrrScheduler s(3, {1.0, 1.0, 1.0});
  s.enqueue(1, pkt());
  EXPECT_EQ(s.dequeue(0)->queue, 1u);
}

TEST(Wrr, ReportsRounds) {
  WrrScheduler s(2, {1.0, 1.0});
  int rounds = 0;
  s.set_round_observer([&](sim::TimeNs) { ++rounds; });
  for (int i = 0; i < 20; ++i) s.enqueue(i % 2, pkt());
  for (int i = 0; i < 20; ++i) (void)s.dequeue(i);
  EXPECT_GE(rounds, 8);
}

TEST(Dwrr, RoundBasedFlag) {
  DwrrScheduler s(2);
  EXPECT_TRUE(s.round_based());
}

TEST(Dwrr, EqualWeightsAlternate) {
  DwrrScheduler s(2, {1.0, 1.0});
  for (int i = 0; i < 10; ++i) s.enqueue(i % 2, pkt());
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 10; ++i) ++counts[s.dequeue(0)->queue];
  EXPECT_EQ(counts[0], 5);
  EXPECT_EQ(counts[1], 5);
}

TEST(Dwrr, BytesServedProportionalToWeights) {
  DwrrScheduler s(2, {1.0, 2.0});
  for (int i = 0; i < 3000; ++i) s.enqueue(i % 2, pkt());
  for (int i = 0; i < 1500; ++i) (void)s.dequeue(0);
  const double ratio = static_cast<double>(s.served_bytes(1)) /
                       static_cast<double>(s.served_bytes(0));
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Dwrr, VariablePacketSizesStillFair) {
  // Queue 0 sends 500 B packets, queue 1 sends 1500 B packets; with equal
  // weights, BYTES served must be equal (packet counts must not be).
  DwrrScheduler s(2, {1.0, 1.0});
  for (int i = 0; i < 3000; ++i) s.enqueue(0, pkt(500));
  for (int i = 0; i < 1000; ++i) s.enqueue(1, pkt(1500));
  std::uint64_t served = 0;
  while (served < 2000) {
    (void)s.dequeue(0);
    ++served;
  }
  const double ratio = static_cast<double>(s.served_bytes(0)) /
                       static_cast<double>(s.served_bytes(1));
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(Dwrr, EmptyQueueForfeitsDeficit) {
  DwrrScheduler s(2, {1.0, 1.0});
  s.enqueue(0, pkt());
  EXPECT_EQ(s.dequeue(0)->queue, 0u);
  // Queue 0 went idle; its deficit must be reset once passed over.
  s.enqueue(1, pkt());
  (void)s.dequeue(0);
  EXPECT_EQ(s.deficit(0), 0);
}

TEST(Dwrr, ReportsRoundsWhenCycling) {
  DwrrScheduler s(2, {1.0, 1.0});
  int rounds = 0;
  s.set_round_observer([&](sim::TimeNs) { ++rounds; });
  for (int i = 0; i < 40; ++i) s.enqueue(i % 2, pkt());
  for (int i = 0; i < 40; ++i) (void)s.dequeue(i);
  EXPECT_GE(rounds, 10);
}

TEST(Dwrr, FractionalWeightsAccumulate) {
  // Weight 0.4 -> quantum 600 B < packet size; needs multiple rounds per
  // packet but must not starve.
  DwrrScheduler s(2, {0.4, 1.0});
  for (int i = 0; i < 100; ++i) {
    s.enqueue(0, pkt());
    s.enqueue(1, pkt());
  }
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 100; ++i) ++counts[s.dequeue(0)->queue];
  EXPECT_GT(counts[0], 20);
  EXPECT_GT(counts[1], 60);
}

// Regression: with fractional weights one selection spins several cursor
// wraps to accumulate a packet's worth of deficit. Each wrap used to fire
// the round observer — flooding MQ-ECN's T_round EWMA with zero-length
// samples at the same timestamp — where the paper's Eq. 3 sees exactly one
// scheduling opportunity. A selection must report at most one round.
TEST(Dwrr, FractionalWeightsReportOneRoundPerDequeue) {
  DwrrScheduler s(2, {0.1, 0.1});  // quantum 150 B, far below 1500 B packets
  int rounds = 0;
  s.set_round_observer([&](sim::TimeNs) { ++rounds; });
  for (int i = 0; i < 5; ++i) s.enqueue(0, pkt());
  for (int i = 0; i < 5; ++i) {
    const int before = rounds;
    (void)s.dequeue(1000 * (i + 1));
    // ~10 cursor wraps happen inside this dequeue; exactly one is a round.
    EXPECT_EQ(rounds - before, 1);
  }
  EXPECT_EQ(rounds, 5);
}

// Consequence of the above: observed round-completion times are strictly
// increasing (duplicate timestamps were the zero-length samples).
TEST(Dwrr, RoundTimestampsStrictlyIncrease) {
  DwrrScheduler s(2, {0.5, 0.5});  // quantum 750 B: two visits per packet
  std::vector<sim::TimeNs> times;
  s.set_round_observer([&](sim::TimeNs t) { times.push_back(t); });
  for (int i = 0; i < 12; ++i) s.enqueue(i % 2, pkt());
  for (int i = 0; i < 12; ++i) (void)s.dequeue(100 * i);
  ASSERT_FALSE(times.empty());
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(Dwrr, RejectsZeroQuantum) {
  EXPECT_THROW(DwrrScheduler(2, {1.0, 1.0}, 0), std::invalid_argument);
}

TEST(Dwrr, QuantumAccessor) {
  DwrrScheduler s(2, {1.0, 2.0}, 1500);
  EXPECT_DOUBLE_EQ(s.quantum(0), 1500.0);
  EXPECT_DOUBLE_EQ(s.quantum(1), 3000.0);
}

// ===================== DWRR differential test =====================

namespace {

/// The DWRR selection DwrrScheduler used before it cached the rounded quanta,
/// stopped wrapping the cursor with a modulo and jumped over idle queues:
/// the reference the current loop must match decision for decision.
class ReferenceDwrr final : public Scheduler {
 public:
  explicit ReferenceDwrr(std::vector<double> weights)
      : Scheduler(weights.size(), weights), deficit_(weights.size(), 0) {}

  [[nodiscard]] std::string name() const override { return "DWRR-ref"; }
  [[nodiscard]] bool round_based() const override { return true; }
  [[nodiscard]] std::int64_t deficit(std::size_t q) const { return deficit_.at(q); }

 protected:
  std::size_t select_queue(TimeNs now) override {
    const std::size_t max_visits = 64 * num_queues() + 64;
    bool round_reported = false;
    for (std::size_t visits = 0; visits < max_visits; ++visits) {
      const std::size_t q = cursor_;
      if (!quantum_added_this_visit_ && backlogged(q)) {
        deficit_[q] += static_cast<std::int64_t>(
            std::llround(weight(q) * sim::kDefaultMtuBytes));
        quantum_added_this_visit_ = true;
      }
      if (backlogged(q) &&
          static_cast<std::int64_t>(head(q).size_bytes) <= deficit_[q]) {
        deficit_[q] -= head(q).size_bytes;
        return q;
      }
      if (!backlogged(q)) deficit_[q] = 0;
      quantum_added_this_visit_ = false;
      cursor_ = (cursor_ + 1) % num_queues();
      if (cursor_ == 0 && !round_reported) {
        notify_round_complete(now);
        round_reported = true;
      }
    }
    throw std::logic_error("ReferenceDwrr: no eligible queue");
  }

 private:
  std::vector<std::int64_t> deficit_;
  std::size_t cursor_ = 0;
  bool quantum_added_this_visit_ = false;
};

/// Drives DwrrScheduler and the reference through one seeded trace of bursts
/// into random subsets of queues, partial drains and full drains (idle gaps),
/// with mixed packet sizes, comparing every decision. Returns how many
/// dequeues it compared.
int run_dwrr_differential(const std::vector<double>& weights, std::uint64_t seed) {
  DwrrScheduler fast(weights.size(), weights);
  ReferenceDwrr ref(weights);
  std::vector<sim::TimeNs> fast_rounds;
  std::vector<sim::TimeNs> ref_rounds;
  fast.set_round_observer([&](sim::TimeNs t) { fast_rounds.push_back(t); });
  ref.set_round_observer([&](sim::TimeNs t) { ref_rounds.push_back(t); });
  std::uint64_t rng = seed;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };
  const std::uint32_t sizes[] = {64, 576, 1000, 1500, 9000};
  const std::size_t n = weights.size();
  sim::TimeNs now = 0;
  int dequeues = 0;
  for (int phase = 0; phase < 200; ++phase) {
    // A burst into a few queues; the rest stay idle this phase.
    const std::size_t active = 1 + next() % std::min<std::size_t>(n, 4);
    for (std::size_t a = 0; a < active; ++a) {
      const std::size_t q = next() % n;
      const int burst = 1 + static_cast<int>(next() % 6);
      for (int b = 0; b < burst; ++b) {
        Packet p = pkt(sizes[next() % 5]);
        p.id = static_cast<std::uint64_t>(phase * 1000 + a * 10 + b);
        fast.enqueue(q, p);
        ref.enqueue(q, p);
      }
    }
    // Drain part of the backlog, or all of it (an idle gap follows).
    const bool full = next() % 3 == 0;
    std::size_t budget = full ? fast.total_packets() : 1 + next() % 8;
    while (budget-- > 0 && !fast.empty()) {
      now += 100;
      const auto got = fast.dequeue(now);
      const auto want = ref.dequeue(now);
      EXPECT_EQ(got->queue, want->queue) << "dequeue " << dequeues;
      EXPECT_EQ(got->pkt->pkt.id, want->pkt->pkt.id) << "dequeue " << dequeues;
      for (std::size_t q = 0; q < n; ++q) {
        EXPECT_EQ(fast.deficit(q), ref.deficit(q))
            << "queue " << q << " after dequeue " << dequeues;
      }
      ++dequeues;
      if (::testing::Test::HasFailure()) return dequeues;
    }
    EXPECT_EQ(fast_rounds, ref_rounds) << "phase " << phase;
    now += 10'000;  // idle gap
  }
  EXPECT_FALSE(fast_rounds.empty());
  return dequeues;
}

}  // namespace

// The cached quanta and the jump to the next backlogged queue must serve the
// same queue, leave the same deficits and report the same rounds as the
// reference, with fractional weights, idle gaps and mixed sizes, on 3 and 8
// queues and on 65, 128 and 255, where the backlog bitmap spans two to four
// words and a jump crosses word boundaries.
TEST(Dwrr, MatchesStepByStepReference) {
  EXPECT_GT(run_dwrr_differential({0.3, 1.7, 2.5}, 1), 1000);
  EXPECT_GT(run_dwrr_differential({0.3, 1.7, 2.5}, 2), 1000);
  EXPECT_GT(run_dwrr_differential({1.0, 0.5, 0.25, 2.0, 1.0, 0.3, 4.0, 1.5}, 3), 1000);
  std::uint64_t seed = 5;
  for (const std::size_t n : {65, 128, 255}) {
    SCOPED_TRACE(n);
    std::vector<double> wide(n);
    for (std::size_t q = 0; q < wide.size(); ++q) wide[q] = 0.3 + 0.2 * (q % 7);
    EXPECT_GT(run_dwrr_differential(wide, seed++), 1000);
  }
}

// A weight so small that a 1,500-byte head needs far more visits than the
// spin bound allows: once the other queues drain, both schedulers give up
// with the spin-bound logic_error at the same dequeue, having made the same
// decisions and reported the same rounds up to it.
TEST(Dwrr, SpinBoundThrowsAtTheSameDequeueAsTheReference) {
  for (const std::size_t n : {3, 70}) {
    SCOPED_TRACE(n);
    std::vector<double> weights(n, 1.0);
    weights[1] = 0.002;  // quantum 3 B: 500 visits per packet
    DwrrScheduler fast(n, weights);
    ReferenceDwrr ref(weights);
    std::vector<sim::TimeNs> fast_rounds;
    std::vector<sim::TimeNs> ref_rounds;
    fast.set_round_observer([&](sim::TimeNs t) { fast_rounds.push_back(t); });
    ref.set_round_observer([&](sim::TimeNs t) { ref_rounds.push_back(t); });
    for (std::uint64_t i = 0; i < 3; ++i) {
      Packet p = pkt(1500);
      p.id = i;
      fast.enqueue(1, p);
      ref.enqueue(1, p);
    }
    for (std::uint64_t i = 0; i < 40; ++i) {
      Packet p = pkt(200 + 100 * (i % 5));
      p.id = 100 + i;
      fast.enqueue(i % 2 == 0 ? 0 : n - 1, p);
      ref.enqueue(i % 2 == 0 ? 0 : n - 1, p);
    }
    int fast_throw = -1;
    int ref_throw = -1;
    for (int d = 0; d < 60 && fast_throw < 0 && ref_throw < 0; ++d) {
      const sim::TimeNs now = 100 * (d + 1);
      std::optional<Dequeued> got;
      std::optional<Dequeued> want;
      try {
        got = fast.dequeue(now);
      } catch (const std::logic_error&) {
        fast_throw = d;
      }
      try {
        want = ref.dequeue(now);
      } catch (const std::logic_error&) {
        ref_throw = d;
      }
      if (got && want) {
        EXPECT_EQ(got->queue, want->queue) << "dequeue " << d;
        EXPECT_EQ(got->pkt->pkt.id, want->pkt->pkt.id) << "dequeue " << d;
        EXPECT_EQ(fast.deficit(1), ref.deficit(1)) << "dequeue " << d;
      }
      EXPECT_EQ(fast_rounds, ref_rounds) << "dequeue " << d;
    }
    EXPECT_EQ(fast_throw, ref_throw);
    EXPECT_GE(fast_throw, 40);  // the other queues' 40 packets went first
  }
}
