// Tests for RED marking, the EWMA occupancy estimator, and averaged-mode
// marking in the Port.
#include <gtest/gtest.h>

#include "ecn/factory.hpp"
#include "ecn/red.hpp"
#include "experiments/dumbbell.hpp"
#include "switchlib/occupancy.hpp"

using namespace pmsb;
using namespace pmsb::ecn;

namespace {
PortSnapshot queue_at(std::uint64_t bytes) {
  PortSnapshot s;
  s.queue_bytes = bytes;
  s.port_bytes = bytes;
  return s;
}
}  // namespace

TEST(Red, NeverMarksBelowMin) {
  RedMarking m({.min_threshold_bytes = 10'000, .max_threshold_bytes = 30'000});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(m.should_mark(queue_at(9'999), {}, MarkPoint::kEnqueue, 0));
  }
}

TEST(Red, AlwaysMarksAtOrAboveMax) {
  RedMarking m({.min_threshold_bytes = 10'000, .max_threshold_bytes = 30'000});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(m.should_mark(queue_at(30'000), {}, MarkPoint::kEnqueue, 0));
    EXPECT_TRUE(m.should_mark(queue_at(50'000), {}, MarkPoint::kEnqueue, 0));
  }
}

TEST(Red, MarkingRateScalesBetweenThresholds) {
  RedMarking m({.min_threshold_bytes = 10'000,
                .max_threshold_bytes = 30'000,
                .max_probability = 0.5});
  auto rate_at = [&](std::uint64_t q) {
    int marked = 0;
    for (int i = 0; i < 4000; ++i) {
      marked += m.should_mark(queue_at(q), {}, MarkPoint::kEnqueue, 0) ? 1 : 0;
    }
    return marked / 4000.0;
  };
  const double low = rate_at(12'000);
  const double high = rate_at(28'000);
  EXPECT_GT(low, 0.0);
  EXPECT_GT(high, low * 2);
}

TEST(Red, DctcpDegenerateSetting) {
  // min == max with p=1 is exactly DCTCP's instantaneous-threshold cut.
  RedMarking m({.min_threshold_bytes = 24'000, .max_threshold_bytes = 24'000});
  EXPECT_FALSE(m.should_mark(queue_at(23'999), {}, MarkPoint::kEnqueue, 0));
  EXPECT_TRUE(m.should_mark(queue_at(24'000), {}, MarkPoint::kEnqueue, 0));
}

TEST(Red, RejectsInvertedThresholds) {
  EXPECT_THROW(RedMarking({.min_threshold_bytes = 10, .max_threshold_bytes = 5}),
               std::invalid_argument);
}

TEST(Red, FactoryBuildsIt) {
  MarkingConfig cfg;
  cfg.kind = MarkingKind::kRed;
  cfg.threshold_bytes = 10'000;
  cfg.red_max_threshold_bytes = 30'000;
  cfg.red_max_probability = 0.1;
  auto scheme = make_marking(cfg);
  EXPECT_EQ(scheme->name(), "RED");
}

TEST(OccupancyEwma, ConvergesToConstantInput) {
  switchlib::OccupancyEwma ewma(0.1, sim::gbps(10));
  for (int i = 0; i < 200; ++i) ewma.observe(15'000, i * 1000);
  EXPECT_NEAR(ewma.average_bytes(), 15'000.0, 10.0);
}

TEST(OccupancyEwma, SmoothsTransients) {
  switchlib::OccupancyEwma ewma(0.02, sim::gbps(10));
  for (int i = 0; i < 100; ++i) ewma.observe(10'000, i * 1000);
  ewma.observe(100'000, 101'000);  // one spike
  EXPECT_LT(ewma.average_bytes(), 15'000.0);
}

TEST(OccupancyEwma, IdleDecaysAverage) {
  switchlib::OccupancyEwma ewma(0.1, sim::gbps(10));
  for (int i = 0; i < 200; ++i) ewma.observe(15'000, i * 1000);
  // Long idle: observing zero after 1 ms decays strongly (10G drains ~833
  // packets in that time).
  ewma.observe(0, sim::milliseconds(1) + 200'000);
  EXPECT_LT(ewma.average_bytes(), 100.0);
}

TEST(PortAveraging, PortConfigEnablesEwmaSnapshot) {
  // Drive a Port directly: a burst that instantaneously exceeds the
  // threshold must NOT mark in averaged mode (EWMA warms up slowly).
  sim::Simulator sim;
  class Sink : public net::Node {
   public:
    Sink() : Node("sink") {}
    void receive(net::Packet p) override { got.push_back(p); }
    std::vector<net::Packet> got;
  } sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  switchlib::PortConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 2 * 1500;
  cfg.average_occupancy = true;
  cfg.ewma_weight = 0.002;  // RED default: very slow
  switchlib::Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 8; ++i) {
      net::Packet p;
      p.size_bytes = 1500;
      p.ect = true;
      port.handle(std::move(p));
    }
  });
  sim.run();
  EXPECT_EQ(port.stats().marked_enqueue, 0u);  // burst invisible to the EWMA
  // The same burst with instantaneous marking would mark most packets
  // (cf. Port.EnqueueMarkingSetsCe in test_port.cpp).
}
