// Tests for the Switch: routing to ports, ECMP spread across uplinks.
#include <gtest/gtest.h>

#include <vector>

#include "net/node.hpp"
#include "switchlib/switch.hpp"

using namespace pmsb;
using namespace pmsb::switchlib;

namespace {

class SinkNode : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(const net::Packet& pkt) override { arrivals.push_back(pkt); }
  std::vector<net::Packet> arrivals;
};

PortConfig fifo_config() {
  PortConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = ecn::MarkingKind::kNone;
  return cfg;
}

net::Packet to(net::HostId dst, net::FlowId flow = 1) {
  net::Packet p;
  p.dst = dst;
  p.flow_id = flow;
  p.size_bytes = 1500;
  return p;
}

}  // namespace

TEST(Switch, RoutesToCorrectPort) {
  sim::Simulator sim;
  SinkNode a("a"), b("b");
  net::Link la(sim, sim::gbps(10), 0, &a);
  net::Link lb(sim, sim::gbps(10), 0, &b);
  Switch sw(sim, "sw");
  const auto pa = sw.add_port(&la, fifo_config());
  const auto pb = sw.add_port(&lb, fifo_config());
  sw.routing().add_route(0, pa);
  sw.routing().add_route(1, pb);
  sim.schedule_at(0, [&] {
    sw.receive(to(0));
    sw.receive(to(1));
    sw.receive(to(1));
  });
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 2u);
}

TEST(Switch, NoRouteThrows) {
  sim::Simulator sim;
  Switch sw(sim, "sw");
  EXPECT_THROW(sw.receive(to(9)), std::out_of_range);
}

TEST(Switch, EcmpSpreadsFlowsAcrossUplinks) {
  sim::Simulator sim;
  SinkNode up0("u0"), up1("u1");
  net::Link l0(sim, sim::gbps(10), 0, &up0);
  net::Link l1(sim, sim::gbps(10), 0, &up1);
  Switch sw(sim, "sw", /*ecmp_salt=*/7);
  const auto p0 = sw.add_port(&l0, fifo_config());
  const auto p1 = sw.add_port(&l1, fifo_config());
  sw.routing().add_route(5, p0);
  sw.routing().add_route(5, p1);
  sim.schedule_at(0, [&] {
    for (net::FlowId f = 0; f < 200; ++f) sw.receive(to(5, f));
  });
  sim.run();
  // Rough balance between the two candidate ports.
  EXPECT_GT(up0.arrivals.size(), 60u);
  EXPECT_GT(up1.arrivals.size(), 60u);
  EXPECT_EQ(up0.arrivals.size() + up1.arrivals.size(), 200u);
}

TEST(Switch, SameFlowSticksToOnePath) {
  sim::Simulator sim;
  SinkNode up0("u0"), up1("u1");
  net::Link l0(sim, sim::gbps(10), 0, &up0);
  net::Link l1(sim, sim::gbps(10), 0, &up1);
  Switch sw(sim, "sw");
  sw.routing().add_route(5, sw.add_port(&l0, fifo_config()));
  sw.routing().add_route(5, sw.add_port(&l1, fifo_config()));
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 50; ++i) sw.receive(to(5, 77));
  });
  sim.run();
  EXPECT_TRUE(up0.arrivals.empty() || up1.arrivals.empty());
  EXPECT_EQ(up0.arrivals.size() + up1.arrivals.size(), 50u);
}

TEST(Switch, PortAccessors) {
  sim::Simulator sim;
  SinkNode a("a");
  net::Link la(sim, sim::gbps(10), 0, &a);
  Switch sw(sim, "sw");
  sw.add_port(&la, fifo_config());
  EXPECT_EQ(sw.num_ports(), 1u);
  EXPECT_EQ(sw.port(0).link(), &la);
  EXPECT_EQ(sw.name(), "sw");
}
