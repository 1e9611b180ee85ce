// Tests for the Switch: routing to ports, ECMP spread across uplinks, and
// one store node carrying a packet from wire to queue to wire.
#include <gtest/gtest.h>

#include <vector>

#include "net/host.hpp"
#include "net/node.hpp"
#include "net/packet_observer.hpp"
#include "net/packet_store.hpp"
#include "switchlib/switch.hpp"

using namespace pmsb;
using namespace pmsb::switchlib;

namespace {

class SinkNode : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(net::PacketNodePtr node) override { arrivals.push_back(node->pkt); }
  std::vector<net::Packet> arrivals;
};

PortConfig fifo_config() {
  PortConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking.kind = ecn::MarkingKind::kNone;
  return cfg;
}

/// A packet to `dst` in its own store node, as a wire delivers it.
net::PacketNodePtr to(net::HostId dst, net::FlowId flow = 1) {
  net::Packet p;
  p.dst = dst;
  p.flow_id = flow;
  p.size_bytes = 1500;
  return net::PacketStore::local().acquire(p);
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

namespace {

/// Records where each packet a link transmits lies: in its store node.
struct TxAddresses final : net::PacketObserver {
  void on_link_tx(net::SiteId, sim::TimeNs, const net::Packet& pkt, sim::TimeNs) override {
    seen.push_back(&pkt);
  }
  std::vector<const net::Packet*> seen;
};

/// Records where each delivered packet lies, then lets its node go.
class AddressSink : public net::Node {
 public:
  AddressSink() : Node("sink") {}
  void receive(net::PacketNodePtr node) override { seen.push_back(&node->pkt); }
  std::vector<const net::Packet*> seen;
};

}  // namespace

// Host::send takes the one node; the host's wire, the switch port's queue
// and the egress wire hand that node on, and the store holds exactly one
// node per packet on the way.
TEST(Switch, OneNodeTravelsFromWireToQueueToWire) {
  net::PacketStore& store = net::PacketStore::local();
  const std::size_t before = store.live();
  sim::Simulator sim;
  AddressSink sink;
  Switch sw(sim, "sw");
  net::Link egress(sim, sim::gbps(10), sim::microseconds(1), &sink);
  net::Link ingress(sim, sim::gbps(10), sim::microseconds(1), &sw);
  net::Host host(sim, 0, "h0");
  host.attach_uplink(&ingress);
  sw.routing().add_route(1, sw.add_port(&egress, fifo_config()));
  TxAddresses at_host, at_switch;
  ingress.add_observer(&at_host);
  egress.add_observer(&at_switch);
  std::vector<std::size_t> live;
  sim.schedule_at(0, [&] {
    net::Packet p;
    p.dst = 1;
    p.size_bytes = 1500;
    for (int i = 0; i < 3; ++i) host.send(p);
  });
  for (const sim::TimeNs t : {100, 2300, 3000, 4000, 5000, 6000}) {
    sim.schedule_at(t, [&] { live.push_back(store.live() - before); });
  }
  sim.run();
  ASSERT_EQ(sink.seen.size(), 3u);
  EXPECT_EQ(at_host.seen, sink.seen);
  EXPECT_EQ(at_switch.seen, sink.seen);
  // Packet k leaves the host at 1200k and reaches the sink at 1200k + 3400.
  EXPECT_EQ(live, (std::vector<std::size_t>{3, 3, 3, 3, 2, 1}));
  EXPECT_EQ(store.live(), before);
}
