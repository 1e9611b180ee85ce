// Randomized soak test: drive the full stack (scenario, switch, scheduler,
// marking, transport) with randomly drawn configurations and check global
// invariants that must hold for ANY configuration:
//   - every finite flow completes and delivers exactly its bytes
//   - port occupancy never exceeds the configured buffer
//   - served bytes never exceed link capacity * time
//   - marking counters are consistent with traffic counters
//   - the run is deterministic given the seed
#include <gtest/gtest.h>

#include "experiments/dumbbell.hpp"
#include "sim/rng.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

struct RandomScenario {
  DumbbellConfig cfg;
  std::vector<DumbbellFlowSpec> specs;
};

RandomScenario draw(std::uint64_t seed) {
  sim::Rng rng(seed);
  RandomScenario out;
  auto& cfg = out.cfg;
  cfg.num_senders = static_cast<std::size_t>(rng.uniform_int(2, 10));
  const sched::SchedulerKind kinds[] = {
      sched::SchedulerKind::kFifo, sched::SchedulerKind::kSp,
      sched::SchedulerKind::kWrr, sched::SchedulerKind::kDwrr,
      sched::SchedulerKind::kWfq};
  cfg.scheduler.kind = kinds[rng.uniform_int(0, 4)];
  cfg.scheduler.num_queues = static_cast<std::size_t>(rng.uniform_int(1, 8));
  cfg.scheduler.weights.clear();
  for (std::size_t q = 0; q < cfg.scheduler.num_queues; ++q) {
    cfg.scheduler.weights.push_back(rng.uniform(0.5, 4.0));
  }
  const ecn::MarkingKind marks[] = {
      ecn::MarkingKind::kNone, ecn::MarkingKind::kPerQueueStandard,
      ecn::MarkingKind::kPerPort, ecn::MarkingKind::kPmsb,
      ecn::MarkingKind::kMqEcn, ecn::MarkingKind::kTcn};
  cfg.marking.kind = marks[rng.uniform_int(0, 5)];
  if (cfg.marking.kind == ecn::MarkingKind::kMqEcn &&
      cfg.scheduler.kind != sched::SchedulerKind::kDwrr &&
      cfg.scheduler.kind != sched::SchedulerKind::kWrr) {
    cfg.marking.kind = ecn::MarkingKind::kPmsb;  // MQ-ECN needs rounds
  }
  cfg.marking.threshold_bytes =
      static_cast<std::uint64_t>(rng.uniform_int(4, 40)) * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  cfg.marking.sojourn_threshold = sim::microseconds(rng.uniform_int(5, 60));
  cfg.marking.point =
      rng.uniform() < 0.5 ? ecn::MarkPoint::kEnqueue : ecn::MarkPoint::kDequeue;
  cfg.buffer_bytes = static_cast<std::uint64_t>(rng.uniform_int(64, 512)) * 1500;

  const int flows = static_cast<int>(rng.uniform_int(1, 12));
  for (int f = 0; f < flows; ++f) {
    DumbbellFlowSpec spec;
    spec.sender = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg.num_senders) - 1));
    spec.service = static_cast<net::ServiceId>(rng.uniform_int(0, 7));
    spec.bytes = static_cast<std::uint64_t>(rng.uniform_int(1'000, 2'000'000));
    spec.start = sim::microseconds(rng.uniform_int(0, 2'000));
    if (rng.uniform() < 0.2) spec.max_rate = sim::gbps(rng.uniform_int(1, 9));
    if (rng.uniform() < 0.25) {
      spec.pmsbe = true;
      spec.pmsbe_rtt_threshold = sim::microseconds(rng.uniform_int(10, 60));
    }
    out.specs.push_back(spec);
  }
  return out;
}

double run_and_check(std::uint64_t seed) {
  const RandomScenario rs = draw(seed);
  DumbbellScenario sc(rs.cfg);
  for (const auto& spec : rs.specs) sc.add_flow(spec);

  // Invariant monitor: buffer bound, capacity bound, sampled during the run.
  bool buffer_ok = true;
  std::function<void()> monitor = [&] {
    if (sc.bottleneck().buffered_bytes() > rs.cfg.buffer_bytes) buffer_ok = false;
    sc.simulator().schedule_in(sim::microseconds(50), monitor);
  };
  sc.simulator().schedule_at(0, monitor);

  sc.run(sim::seconds(3));
  EXPECT_TRUE(buffer_ok) << "seed " << seed;

  double fct_sum = 0;
  for (std::size_t f = 0; f < sc.num_flows(); ++f) {
    const auto& sender = sc.flow(f).sender();
    EXPECT_TRUE(sender.complete()) << "seed " << seed << " flow " << f;
    EXPECT_EQ(sender.bytes_acked(), sender.flow_bytes()) << "seed " << seed;
    EXPECT_EQ(sc.flow(f).receiver().rcv_nxt(), sender.flow_bytes());
    fct_sum += static_cast<double>(sender.completion_time());
  }
  const auto& st = sc.bottleneck().stats();
  EXPECT_LE(st.marked_enqueue + st.marked_dequeue, st.enqueued_packets);
  EXPECT_LE(st.dequeued_packets, st.enqueued_packets);
  // Capacity bound: served bytes cannot exceed line rate for the busy time.
  std::uint64_t served = 0;
  for (std::size_t q = 0; q < rs.cfg.scheduler.num_queues; ++q) {
    served += sc.bottleneck().scheduler().served_bytes(q);
  }
  EXPECT_LE(static_cast<double>(served) * 8.0,
            static_cast<double>(rs.cfg.link_rate) *
                sim::to_seconds(sc.simulator().now()) * 1.01);
  return fct_sum;
}

}  // namespace

class Soak : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Soak, RandomConfigurationHoldsInvariants) { run_and_check(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, Soak,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                         14, 15, 16));

TEST(Soak, DeterministicGivenSeed) {
  EXPECT_DOUBLE_EQ(run_and_check(77), run_and_check(77));
}
