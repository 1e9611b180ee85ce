// Failure-injection tests: DCTCP must survive probabilistic loss, counted
// loss bursts, and jitter-induced reordering without corrupting delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "net/fault_injector.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "transport/dctcp.hpp"

using namespace pmsb;
using namespace pmsb::net;

namespace {

// Two hosts joined by direct links, with a FaultInjector on the data path.
struct LossyPair {
  sim::Simulator sim;
  Host a{sim, 0, "a"};
  Host b{sim, 1, "b"};
  FaultInjector to_b{sim, &b};
  Link ab{sim, sim::gbps(10), sim::microseconds(2), &to_b};
  Link ba{sim, sim::gbps(10), sim::microseconds(2), &a};

  LossyPair() {
    a.attach_uplink(&ab);
    b.attach_uplink(&ba);
  }
};

}  // namespace

TEST(FaultInjector, ForwardsByDefault) {
  LossyPair net;
  int got = 0;
  net.b.register_flow(1, [&](Packet) { ++got; });
  net.sim.schedule_at(0, [&] {
    Packet p;
    p.flow_id = 1;
    p.dst = 1;
    net.a.send(std::move(p));
  });
  net.sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.to_b.forwarded(), 1u);
}

TEST(FaultInjector, CountedDropsDropExactly) {
  LossyPair net;
  int got = 0;
  net.b.register_flow(1, [&](Packet) { ++got; });
  net.to_b.drop_next(2);
  net.sim.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) {
      Packet p;
      p.flow_id = 1;
      p.dst = 1;
      net.a.send(std::move(p));
    }
  });
  net.sim.run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(net.to_b.dropped(), 2u);
}

TEST(FaultInjector, JitterReordersButDelivers) {
  LossyPair net;
  std::vector<std::uint64_t> order;
  net.b.register_flow(1, [&](Packet p) { order.push_back(p.seq); });
  net.to_b.set_extra_delay(sim::microseconds(1), sim::microseconds(50));
  net.sim.schedule_at(0, [&] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      Packet p;
      p.flow_id = 1;
      p.dst = 1;
      p.seq = i;
      p.size_bytes = 100;
      net.a.send(std::move(p));
    }
  });
  net.sim.run();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));  // reordered
}

TEST(FaultInjection, DctcpCompletesThroughOnePercentLoss) {
  LossyPair net;
  net.to_b.set_drop_rate(0.01);
  transport::DctcpConfig cfg;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, 2'000'000, cfg);
  bool done = false;
  flow.sender().set_completion_callback([&](sim::TimeNs) { done = true; });
  flow.start(0);
  net.sim.run(sim::seconds(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(flow.receiver().rcv_nxt(), 2'000'000u);
  EXPECT_GT(flow.sender().stats().retransmits, 0u);
}

TEST(FaultInjection, DctcpSurvivesLossBurst) {
  LossyPair net;
  transport::DctcpConfig cfg;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, 500'000, cfg);
  flow.start(0);
  // Kill a burst of 12 packets mid-flow.
  net.sim.schedule_at(sim::microseconds(100), [&] { net.to_b.drop_next(12); });
  net.sim.run(sim::seconds(10));
  EXPECT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().rcv_nxt(), 500'000u);
}

TEST(FaultInjection, ReorderingTriggersFastRetransmitNotCollapse) {
  LossyPair net;
  net.to_b.set_extra_delay(0, sim::microseconds(30));
  transport::DctcpConfig cfg;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, 1'000'000, cfg);
  flow.start(0);
  net.sim.run(sim::seconds(10));
  ASSERT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().rcv_nxt(), 1'000'000u);
  // Spurious retransmits are allowed; stalls (many timeouts) are not.
  EXPECT_LE(flow.sender().stats().timeouts, 2u);
}

namespace {

// Like LossyPair but with an injector on the ACK return path too, so tests
// can fault data and ACK traffic independently.
struct LossyDuplex {
  sim::Simulator sim;
  Host a{sim, 0, "a"};
  Host b{sim, 1, "b"};
  FaultInjector to_b{sim, &b};
  FaultInjector to_a{sim, &a};
  Link ab{sim, sim::gbps(10), sim::microseconds(2), &to_b};
  Link ba{sim, sim::gbps(10), sim::microseconds(2), &to_a};

  LossyDuplex() {
    a.attach_uplink(&ab);
    b.attach_uplink(&ba);
  }
};

}  // namespace

TEST(FaultInjection, SingleCountedDataDropRecoversByFastRetransmit) {
  LossyPair net;
  transport::DctcpConfig cfg;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, 1'000'000, cfg);
  flow.start(0);
  // One counted drop mid-stream: the packets behind it generate dupacks, so
  // recovery must come from fast retransmit, never a timeout.
  net.sim.schedule_at(sim::microseconds(200), [&] { net.to_b.drop_next(1); });
  net.sim.run(sim::seconds(10));
  ASSERT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().rcv_nxt(), 1'000'000u);
  EXPECT_EQ(net.to_b.counters().dropped_counted, 1u);
  EXPECT_GE(flow.sender().stats().retransmits, 1u);
  EXPECT_EQ(flow.sender().stats().timeouts, 0u);
}

TEST(FaultInjection, AckPastTheGoBackNResendMovesSendingOn) {
  LossyPair net;
  transport::DctcpConfig cfg;
  cfg.init_cwnd_segments = 3;
  constexpr std::uint64_t kBytes = 100'000;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, kBytes, cfg);
  // The head of the first window is lost. Two dupacks are too few for fast
  // retransmit, so the timeout fires and go-back-N resends from snd_una; the
  // receiver holds the other two segments, so the ACK for that resend
  // covers all three, beyond the sender's resend point. Sending must go on
  // from there instead of waiting for a second timeout.
  net.to_b.drop_next(1);
  flow.start(0);
  std::uint64_t max_inflight = 0;
  std::function<void()> probe = [&] {
    max_inflight = std::max(max_inflight, flow.sender().bytes_inflight());
    if (!flow.sender().complete()) net.sim.schedule_in(sim::microseconds(10), probe);
  };
  net.sim.schedule_at(0, probe);
  net.sim.run(sim::seconds(1));
  ASSERT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().rcv_nxt(), kBytes);
  EXPECT_EQ(net.to_b.counters().dropped_counted, 1u);
  EXPECT_LE(max_inflight, kBytes);
  EXPECT_EQ(flow.sender().stats().timeouts, 1u);
}

TEST(FaultInjection, AckBlackoutForcesRtoThenGoBackNRecovery) {
  LossyDuplex net;
  transport::DctcpConfig cfg;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, 1'000'000, cfg);
  flow.start(0);
  // Blackhole every pure ACK for 5 ms: no dupacks can arrive, so the only
  // way out is the retransmission timer firing and go-back-N resending from
  // snd_una until the ACK path heals.
  net.sim.schedule_at(sim::microseconds(200), [&] { net.to_a.set_down(true); });
  net.sim.schedule_at(sim::microseconds(5200), [&] { net.to_a.set_down(false); });
  net.sim.run(sim::seconds(10));
  ASSERT_TRUE(flow.sender().complete());
  EXPECT_EQ(flow.receiver().rcv_nxt(), 1'000'000u);
  EXPECT_GT(net.to_a.counters().dropped_down, 0u);  // pure ACKs were dropped
  EXPECT_GE(flow.sender().stats().timeouts, 1u);
  EXPECT_GE(flow.sender().stats().retransmits, 1u);
}

TEST(FaultInjection, HeavyLossStillMakesProgress) {
  LossyPair net;
  net.to_b.set_drop_rate(0.05);
  transport::DctcpConfig cfg;
  transport::Flow flow(net.sim, net.a, net.b, 1, 0, 300'000, cfg);
  flow.start(0);
  net.sim.run(sim::seconds(30));
  EXPECT_TRUE(flow.sender().complete());
}
