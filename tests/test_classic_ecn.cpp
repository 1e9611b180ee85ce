// Tests for the classic RFC 3168 ECN reaction mode (halve once per window)
// and its contrast with DCTCP's proportional cut.
#include <gtest/gtest.h>

#include <algorithm>

#include "experiments/dumbbell.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
DumbbellConfig marked_config(transport::EcnReaction reaction) {
  DumbbellConfig cfg;
  cfg.num_senders = 4;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  cfg.transport.reaction = reaction;
  return cfg;
}
}  // namespace

TEST(ClassicEcn, StillSaturatesAndCompletes) {
  DumbbellScenario sc(marked_config(transport::EcnReaction::kClassicEcn));
  for (std::size_t i = 0; i < 4; ++i) {
    sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(10));
  std::uint64_t s = sc.served_bytes(0);
  sc.run(sim::milliseconds(40));
  const double gbps = static_cast<double>(sc.served_bytes(0) - s) * 8.0 /
                      static_cast<double>(sim::milliseconds(30));
  EXPECT_GT(gbps, 8.0);
  EXPECT_GT(sc.flow(0).sender().stats().window_cuts, 0u);
}

TEST(ClassicEcn, OscillatesMoreThanDctcp) {
  // The whole point of DCTCP: proportional cuts keep the queue tight, while
  // RFC 3168 halving swings it between near-empty and the threshold.
  auto amplitude = [](transport::EcnReaction reaction) {
    DumbbellScenario sc(marked_config(reaction));
    for (std::size_t i = 0; i < 4; ++i) {
      sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
    }
    sc.run(sim::milliseconds(20));  // converge first
    telemetry::TimeSeriesSampler occupancy(sc.simulator(), sim::microseconds(2));
    occupancy.add_probe("bytes", [&sc] {
      return static_cast<double>(sc.bottleneck().buffered_bytes());
    });
    occupancy.start();
    sc.run(sim::milliseconds(60));
    const auto [trough, peak] = std::ranges::minmax(occupancy.column(0));
    return peak - trough;
  };
  const double dctcp_amp = amplitude(transport::EcnReaction::kDctcp);
  const double classic_amp = amplitude(transport::EcnReaction::kClassicEcn);
  EXPECT_GT(classic_amp, dctcp_amp * 1.2);
}

TEST(ClassicEcn, HalvesOncePerWindow) {
  // With a continuous stream of marks, classic ECN must not halve on every
  // ACK — once per window only, or cwnd collapses to 1 MSS permanently.
  DumbbellScenario sc(marked_config(transport::EcnReaction::kClassicEcn));
  for (std::size_t i = 0; i < 2; ++i) {
    sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(30));
  // cwnd must stay meaningfully above the 1-MSS floor on average.
  EXPECT_GT(sc.flow(0).sender().cwnd_bytes(), 2.0 * 1460);
}
