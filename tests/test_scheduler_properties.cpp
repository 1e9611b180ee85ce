// Property-based tests that every scheduler implementation must satisfy,
// run via parameterized gtest across all disciplines and several weight
// vectors:
//   1. conservation  — every enqueued packet is dequeued exactly once
//   2. accounting    — byte/packet counters return to zero when drained
//   3. work conservation — dequeue never fails while backlog exists
//   4. FIFO-within-queue — packets of one queue leave in arrival order
//   5. weighted fairness — under continuous backlog, long-run service is
//      proportional to weights (for the weighted disciplines)
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "sched/factory.hpp"
#include "sim/rng.hpp"

using namespace pmsb;
using namespace pmsb::sched;

namespace {

struct Case {
  SchedulerKind kind;
  std::size_t num_queues;
  std::vector<double> weights;
  bool weighted_fair;  ///< property 5 applies
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string n = scheduler_kind_name(info.param.kind);
  for (char& c : n) {
    if (c == '+') c = '_';
  }
  return n + "_q" + std::to_string(info.param.num_queues) + "_" +
         std::to_string(info.index);
}

Packet pkt(std::uint64_t id, std::uint32_t size) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  return p;
}

std::unique_ptr<Scheduler> make(const Case& c) {
  SchedulerConfig cfg;
  cfg.kind = c.kind;
  cfg.num_queues = c.num_queues;
  cfg.weights = c.weights;
  if (c.kind == SchedulerKind::kSpWfq) {
    cfg.priority_group.assign(c.num_queues, 0);
    if (c.num_queues > 1) cfg.priority_group[0] = 0;
  }
  return make_scheduler(cfg);
}

}  // namespace

class SchedulerProperty : public testing::TestWithParam<Case> {};

TEST_P(SchedulerProperty, ConservationAndOrder) {
  auto s = make(GetParam());
  sim::Rng rng(99);
  std::map<std::size_t, std::vector<std::uint64_t>> sent, got;
  std::uint64_t id = 0;
  // Random interleaving of enqueues and dequeues.
  for (int step = 0; step < 5000; ++step) {
    if (s->empty() || rng.uniform() < 0.55) {
      const auto q = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s->num_queues()) - 1));
      const auto size = static_cast<std::uint32_t>(rng.uniform_int(64, 1500));
      sent[q].push_back(id);
      s->enqueue(q, pkt(id++, size));
    } else {
      auto out = s->dequeue(step);
      ASSERT_TRUE(out.has_value());  // work conservation
      got[out->queue].push_back(out->pkt->pkt.id);
    }
  }
  while (auto out = s->dequeue(10000)) got[out->queue].push_back(out->pkt->pkt.id);
  // Conservation + FIFO within queue.
  ASSERT_EQ(sent.size(), got.size());
  for (auto& [q, ids] : sent) EXPECT_EQ(got[q], ids) << "queue " << q;
  // Accounting drained.
  EXPECT_EQ(s->total_bytes(), 0u);
  EXPECT_EQ(s->total_packets(), 0u);
  for (std::size_t q = 0; q < s->num_queues(); ++q) {
    EXPECT_EQ(s->queue_bytes(q), 0u);
    EXPECT_EQ(s->queue_packets(q), 0u);
  }
}

TEST_P(SchedulerProperty, WeightedFairnessUnderSaturation) {
  const Case& c = GetParam();
  if (!c.weighted_fair) GTEST_SKIP() << "not a weighted-fair discipline";
  auto s = make(c);
  // Keep all queues continuously backlogged.
  std::uint64_t id = 0;
  for (std::size_t q = 0; q < c.num_queues; ++q) {
    for (int i = 0; i < 40; ++i) s->enqueue(q, pkt(id++, 1500));
  }
  const int serves = 4000;
  for (int i = 0; i < serves; ++i) {
    auto out = s->dequeue(i);
    ASSERT_TRUE(out.has_value());
    s->enqueue(out->queue, pkt(id++, 1500));  // refill
  }
  double wsum = 0;
  for (double w : s->weights()) wsum += w;
  std::uint64_t total = 0;
  for (std::size_t q = 0; q < c.num_queues; ++q) total += s->served_bytes(q);
  for (std::size_t q = 0; q < c.num_queues; ++q) {
    const double expected = s->weight(q) / wsum;
    const double actual = static_cast<double>(s->served_bytes(q)) / total;
    EXPECT_NEAR(actual, expected, 0.05)
        << scheduler_kind_name(c.kind) << " queue " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    testing::Values(
        Case{SchedulerKind::kFifo, 1, {}, false},
        Case{SchedulerKind::kFifo, 4, {}, false},
        Case{SchedulerKind::kSp, 3, {}, false},
        Case{SchedulerKind::kWrr, 2, {1.0, 1.0}, true},
        Case{SchedulerKind::kWrr, 3, {1.0, 2.0, 4.0}, true},
        Case{SchedulerKind::kDwrr, 2, {1.0, 1.0}, true},
        Case{SchedulerKind::kDwrr, 4, {1.0, 2.0, 3.0, 4.0}, true},
        Case{SchedulerKind::kDwrr, 8, std::vector<double>(8, 1.0), true},
        Case{SchedulerKind::kWfq, 2, {1.0, 1.0}, true},
        Case{SchedulerKind::kWfq, 4, {4.0, 3.0, 2.0, 1.0}, true},
        Case{SchedulerKind::kWfq, 8, std::vector<double>(8, 1.0), true},
        Case{SchedulerKind::kSpWfq, 3, {1.0, 1.0, 1.0}, true}),
    case_name);

TEST(SchedulerFactory, ParsesNames) {
  EXPECT_EQ(parse_scheduler_kind("dwrr"), SchedulerKind::kDwrr);
  EXPECT_EQ(parse_scheduler_kind("WFQ"), SchedulerKind::kWfq);
  EXPECT_EQ(parse_scheduler_kind("sp+wfq"), SchedulerKind::kSpWfq);
  EXPECT_THROW(parse_scheduler_kind("bogus"), std::invalid_argument);
}

TEST(SchedulerFactory, RoundTripNames) {
  for (auto kind : {SchedulerKind::kFifo, SchedulerKind::kSp, SchedulerKind::kWrr,
                    SchedulerKind::kDwrr, SchedulerKind::kWfq, SchedulerKind::kSpWfq}) {
    EXPECT_EQ(parse_scheduler_kind(scheduler_kind_name(kind)), kind);
  }
}
