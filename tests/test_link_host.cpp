// Tests for Link (serialization + propagation, in-place delivery) and Host
// (NIC FIFO, demux).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_store.hpp"
#include "sim/simulator.hpp"

using namespace pmsb;
using namespace pmsb::net;

namespace {

class SinkNode : public Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(const Packet& pkt) override { arrivals.push_back(pkt); }
  std::vector<Packet> arrivals;
};

/// Records (arrival time, packet id) per delivery.
class ClockedSink : public Node {
 public:
  explicit ClockedSink(const sim::Simulator& sim) : Node("clocked"), sim_(sim) {}
  void receive(const Packet& pkt) override { arrivals.emplace_back(sim_.now(), pkt.id); }
  std::vector<std::pair<sim::TimeNs, std::uint64_t>> arrivals;

 private:
  const sim::Simulator& sim_;
};

Packet make_packet(std::uint32_t size = 1500, std::uint64_t id = 0) {
  Packet p;
  p.size_bytes = size;
  p.id = id;
  return p;
}

}  // namespace

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link link(sim, sim::gbps(10), sim::microseconds(5), &sink);
  sim::TimeNs arrival = -1;
  sim.schedule_at(0, [&] {
    const sim::TimeNs tx_done = link.transmit(make_packet(1500));
    EXPECT_EQ(tx_done, 1200);  // 1500B @ 10G
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  arrival = sim.now();
  EXPECT_EQ(arrival, 1200 + 5000);
}

TEST(Link, BusyDuringSerialization) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link link(sim, sim::gbps(10), 0, &sink);
  sim.schedule_at(0, [&] {
    link.transmit(make_packet(1500));
    EXPECT_TRUE(link.busy());
  });
  sim.schedule_at(1200, [&] { EXPECT_FALSE(link.busy()); });
  sim.run();
}

TEST(Link, CountsBytesAndPackets) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link link(sim, sim::gbps(10), 0, &sink);
  sim.schedule_at(0, [&] { link.transmit(make_packet(1000)); });
  sim.schedule_at(10000, [&] { link.transmit(make_packet(500)); });
  sim.run();
  EXPECT_EQ(link.bytes_sent(), 1500u);
  EXPECT_EQ(link.packets_sent(), 2u);
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Host, SendSerializesBackToBack) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link up(sim, sim::gbps(10), 0, &sink);
  Host host(sim, 0, "h0");
  host.attach_uplink(&up);
  sim.schedule_at(0, [&] {
    host.send(make_packet(1500));
    host.send(make_packet(1500));
    host.send(make_packet(1500));
    EXPECT_EQ(host.nic_backlog_packets(), 2u);  // first is on the wire
  });
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  // Three packets serialized back to back: last bit at 3 * 1200 ns.
  EXPECT_EQ(sim.now(), 3600);
  EXPECT_EQ(host.nic_backlog_bytes(), 0u);
  // The send event, three deliveries, and the two transmit-done wake-ups
  // that found a packet waiting. The third packet's wake-up would find the
  // queue empty, so it is never queued.
  EXPECT_EQ(sim.executed_events(), 6u);
}

TEST(Host, StampsSentTime) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link up(sim, sim::gbps(10), 0, &sink);
  Host host(sim, 0, "h0");
  host.attach_uplink(&up);
  sim.schedule_at(777, [&] { host.send(make_packet()); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].sent_time, 777);
}

TEST(Host, SendWithoutUplinkThrows) {
  sim::Simulator sim;
  Host host(sim, 0, "h0");
  EXPECT_THROW(host.send(make_packet()), std::logic_error);
}

TEST(Host, DemuxesToRegisteredHandler) {
  sim::Simulator sim;
  Host host(sim, 0, "h0");
  int got_a = 0, got_b = 0;
  host.register_flow(1, [&](Packet) { ++got_a; });
  host.register_flow(2, [&](Packet) { ++got_b; });
  Packet p1 = make_packet();
  p1.flow_id = 1;
  Packet p2 = make_packet();
  p2.flow_id = 2;
  host.receive(p1);
  host.receive(p2);
  host.receive(p1);
  EXPECT_EQ(got_a, 2);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(host.delivered_packets(), 3u);
}

TEST(Host, UnregisteredFlowCounted) {
  sim::Simulator sim;
  Host host(sim, 0, "h0");
  Packet p = make_packet();
  p.flow_id = 99;
  host.receive(p);
  EXPECT_EQ(host.dropped_no_handler(), 1u);
}

TEST(Host, HandlerMayUnregisterItself) {
  sim::Simulator sim;
  Host host(sim, 0, "h0");
  int calls = 0;
  host.register_flow(5, [&](Packet) {
    ++calls;
    host.unregister_flow(5);
  });
  Packet p = make_packet();
  p.flow_id = 5;
  host.receive(p);
  host.receive(p);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(host.dropped_no_handler(), 1u);
}

// Host::send from outside any dispatch: at set-up, after run(until) stopped
// mid-serialization, and after run(until) passed the tx-done instant.
TEST(Host, SendFromOutsideDispatchAfterRunUntil) {
  sim::Simulator sim;
  ClockedSink sink(sim);
  Link up(sim, sim::gbps(10), 0, &sink);
  Host host(sim, 0, "h0");
  host.attach_uplink(&up);
  host.send(make_packet(1500, 1));  // set-up: straight onto the wire
  EXPECT_TRUE(up.busy());
  sim.run(500);  // horizon inside packet 1's serialization
  host.send(make_packet(1500, 2));  // waits for the tx-done wake-up at 1200
  EXPECT_EQ(host.nic_backlog_packets(), 1u);
  sim.run(2400);  // packet 2 finished at 2400; the link is idle there
  ASSERT_EQ(sim.now(), 2400);
  EXPECT_FALSE(up.busy());
  host.send(make_packet(1500, 3));  // idle link: transmits at once
  EXPECT_TRUE(up.busy());
  EXPECT_EQ(host.nic_backlog_packets(), 0u);
  host.send(make_packet(500, 4));  // queued behind packet 3
  sim.run();
  using Arrival = std::pair<sim::TimeNs, std::uint64_t>;
  EXPECT_EQ(sink.arrivals, (std::vector<Arrival>{
                               {1200, 1}, {2400, 2}, {3600, 3}, {4000, 4}}));
  EXPECT_EQ(up.packets_in_flight(), 0u);
}

// A link delivers in FIFO order with one queued delivery event at a time;
// packets_in_flight() counts the list exactly, and re-pointing the link
// mid-flight sends every packet still on the wire to the new node.
TEST(Link, DeliveriesStayFifoAndFollowSetDestination) {
  sim::Simulator sim;
  ClockedSink first(sim);
  ClockedSink second(sim);
  Link up(sim, sim::gbps(10), sim::microseconds(5), &first);
  Host host(sim, 0, "h0");
  host.attach_uplink(&up);
  sim.schedule_at(0, [&] {
    for (std::uint64_t id = 1; id <= 5; ++id) host.send(make_packet(1500, id));
  });
  // Packet k finishes serializing at 1200k and arrives 5 us later.
  std::vector<std::uint64_t> in_flight;
  for (const sim::TimeNs t : {1000, 3000, 6100, 6300, 7000, 10000, 12000}) {
    sim.schedule_at(t, [&] { in_flight.push_back(up.packets_in_flight()); });
  }
  sim.schedule_at(7000, [&] {
    EXPECT_EQ(sim.pending_events(), 3u)
        << "one delivery, one in-flight sampler at 10000 and one at 12000";
    up.set_destination(&second);
  });
  sim.run();
  using Arrival = std::pair<sim::TimeNs, std::uint64_t>;
  EXPECT_EQ(first.arrivals, (std::vector<Arrival>{{6200, 1}}));
  EXPECT_EQ(second.arrivals, (std::vector<Arrival>{
                                 {7400, 2}, {8600, 3}, {9800, 4}, {11000, 5}}));
  EXPECT_EQ(in_flight, (std::vector<std::uint64_t>{1, 3, 5, 4, 4, 1, 0}));
  EXPECT_EQ(up.packets_delivered(), 5u);
}

// A link, host or both destroyed with packets still on the wire and in the
// NIC queue hand every node back to the thread's store.
TEST(Link, DestroyedWithPacketsInFlightReturnsTheirNodes) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  {
    sim::Simulator sim;
    SinkNode sink("sink");
    Link up(sim, sim::gbps(10), sim::microseconds(5), &sink);
    Host host(sim, 0, "h0");
    host.attach_uplink(&up);
    for (std::uint64_t id = 1; id <= 8; ++id) host.send(make_packet(1500, id));
    sim.run(4000);  // three on the wire, one serializing, four in the NIC
    EXPECT_EQ(sink.arrivals.size(), 0u);
    EXPECT_EQ(up.packets_in_flight(), 4u);
    EXPECT_EQ(host.nic_backlog_packets(), 4u);
    EXPECT_EQ(store.live(), before + 8);
  }
  EXPECT_EQ(store.live(), before);
}

/// Throws on the first delivery it sees, then records like SinkNode.
class ThrowOnceNode : public Node {
 public:
  ThrowOnceNode() : Node("throw-once") {}
  void receive(const Packet& pkt) override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("receiver failed");
    }
    arrivals.push_back(pkt.id);
  }
  std::vector<std::uint64_t> arrivals;

 private:
  bool thrown_ = false;
};

// The link unlinks the head and queues the next delivery before receive();
// a receiver that throws loses its own packet but not the ones behind it,
// and the thrown packet's node still goes back to the store.
TEST(Link, ReceiverThatThrowsLeavesTheLinkDeliveringTheRest) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  sim::Simulator sim;
  ThrowOnceNode node;
  Link link(sim, sim::gbps(10), sim::microseconds(5), &node);
  sim.schedule_at(0, [&] { link.transmit(make_packet(1500, 1)); });
  sim.schedule_at(1200, [&] { link.transmit(make_packet(1500, 2)); });
  sim.run(1200);
  EXPECT_EQ(store.live(), before + 2);
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), 6200);
  EXPECT_EQ(link.packets_delivered(), 1u);
  EXPECT_EQ(store.live(), before + 1);
  sim.run();
  EXPECT_EQ(node.arrivals, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(sim.now(), 7400);
  EXPECT_EQ(link.packets_in_flight(), 0u);
  EXPECT_EQ(store.live(), before);
}
