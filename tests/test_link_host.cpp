// Tests for Link (serialization + propagation, node handover) and Host
// (NIC FIFO, demux, where a packet takes and gives back its store node).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_store.hpp"
#include "sim/simulator.hpp"
#include "test_demux.hpp"

using namespace pmsb;
using namespace pmsb::net;

namespace {

class SinkNode : public Node {
 public:
  explicit SinkNode(std::string name) : Node(std::move(name)) {}
  void receive(PacketNodePtr node) override { arrivals.push_back(node->pkt); }
  std::vector<Packet> arrivals;
};

/// Records (arrival time, packet id) per delivery.
class ClockedSink : public Node {
 public:
  explicit ClockedSink(const sim::Simulator& sim) : Node("clocked"), sim_(sim) {}
  void receive(PacketNodePtr node) override {
    arrivals.emplace_back(sim_.now(), node->pkt.id);
  }
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

/// A packet in a node of its own, as a device hands it to a link or a link
/// to a device.
PacketNodePtr make_node(const Packet& p) { return PacketStore::local().acquire(p); }
PacketNodePtr make_node(std::uint32_t size = 1500, std::uint64_t id = 0) {
  return make_node(make_packet(size, id));
}

}  // namespace

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link link(sim, sim::gbps(10), sim::microseconds(5), &sink);
  sim::TimeNs arrival = -1;
  sim.schedule_at(0, [&] {
    const sim::TimeNs tx_done = link.transmit(make_node(1500));
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
    link.transmit(make_node(1500));
    EXPECT_TRUE(link.busy());
  });
  sim.schedule_at(1200, [&] { EXPECT_FALSE(link.busy()); });
  sim.run();
}

TEST(Link, CountsBytesAndPackets) {
  sim::Simulator sim;
  SinkNode sink("sink");
  Link link(sim, sim::gbps(10), 0, &sink);
  sim.schedule_at(0, [&] { link.transmit(make_node(1000)); });
  sim.schedule_at(10000, [&] { link.transmit(make_node(500)); });
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
  test::TestDemux demux{&host};
  demux.take(1);
  demux.take(2);
  Packet p1 = make_packet();
  p1.flow_id = 1;
  Packet p2 = make_packet();
  p2.flow_id = 2;
  host.receive(make_node(p1));
  host.receive(make_node(p2));
  host.receive(make_node(p1));
  EXPECT_EQ(demux.taken(host, 1).size(), 2u);
  EXPECT_EQ(demux.taken(host, 2).size(), 1u);
  EXPECT_EQ(host.delivered_packets(), 3u);
}

// send() takes the packet's one node; the wire hands that node to the
// receiving host, which gives it back once its demux has returned.
TEST(Host, SendTakesTheNodeAndReceiveGivesItBack) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  sim::Simulator sim;
  Host a(sim, 0, "a");
  Host b(sim, 1, "b");
  Link ab(sim, sim::gbps(10), sim::microseconds(2), &b);
  a.attach_uplink(&ab);
  test::TestDemux demux{&b};
  demux.take(7);
  Packet p = make_packet(1500, 42);
  p.flow_id = 7;
  sim.schedule_at(0, [&] {
    a.send(p);
    EXPECT_EQ(store.live(), before + 1);
  });
  sim.schedule_at(1000, [&] {
    EXPECT_EQ(ab.packets_in_flight(), 1u);
    EXPECT_EQ(store.live(), before + 1);
  });
  sim.run();
  ASSERT_EQ(demux.taken(b, 7).size(), 1u);
  EXPECT_EQ(demux.taken(b, 7)[0].id, 42u);
  EXPECT_EQ(store.live(), before);
  b.receive(make_node(make_packet()));  // flow 0: declined, still released
  EXPECT_EQ(b.dropped_no_handler(), 1u);
  EXPECT_EQ(store.live(), before);
}

TEST(Host, UnregisteredFlowCounted) {
  sim::Simulator sim;
  Host host(sim, 0, "h0");
  Packet p = make_packet();
  p.flow_id = 99;
  host.receive(make_node(p));  // no demux
  EXPECT_EQ(host.dropped_no_handler(), 1u);
  test::TestDemux demux{&host};
  demux.take(1);
  host.receive(make_node(p));  // the demux declines flow 99
  EXPECT_EQ(host.dropped_no_handler(), 2u);
  EXPECT_EQ(host.delivered_packets(), 0u);
}

// A demux may stop taking a flow inside its own deliver(): the packet it is
// delivering still counts as delivered, and the next one is declined.
TEST(Host, HandlerMayUnregisterItself) {
  sim::Simulator sim;
  Host host(sim, 0, "h0");
  test::TestDemux demux{&host};
  demux.take(5, /*limit=*/1);
  Packet p = make_packet();
  p.flow_id = 5;
  host.receive(make_node(p));
  host.receive(make_node(p));
  EXPECT_EQ(demux.taken(host, 5).size(), 1u);
  EXPECT_EQ(host.delivered_packets(), 1u);
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

// Each delivery's (arrival, seq) is reserved at transmit and rides on the
// node ahead of it on the wire. Mixed sizes in flight must still deliver
// exactly where an event scheduled at transmit would run: after a marker
// scheduled for the same instant just before the transmit, and before one
// scheduled just after it.
TEST(Link, MixedSizesInFlightDeliverAtTheirReservedPositions) {
  sim::Simulator sim;
  std::vector<std::pair<sim::TimeNs, std::string>> trace;
  struct Recorder : Node {
    Recorder(sim::Simulator& s, std::vector<std::pair<sim::TimeNs, std::string>>& t)
        : Node("recorder"), sim(s), trace(t) {}
    void receive(PacketNodePtr node) override {
      trace.emplace_back(sim.now(), "rx" + std::to_string(node->pkt.id));
    }
    sim::Simulator& sim;
    std::vector<std::pair<sim::TimeNs, std::string>>& trace;
  } sink(sim, trace);
  const sim::TimeNs delay = sim::microseconds(2);
  Link link(sim, sim::gbps(10), delay, &sink);
  const std::vector<std::uint32_t> sizes = {1500, 40, 9000, 64, 1500, 40};
  std::vector<std::pair<sim::TimeNs, std::string>> want;
  std::uint64_t most_in_flight = 0;
  // Back to back: each transmit at the previous one's tx_done.
  std::function<void(std::size_t)> send = [&](std::size_t i) {
    const sim::TimeNs arrival =
        sim.now() + sim::serialization_delay(sizes[i], link.rate()) + delay;
    const std::string id = std::to_string(i + 1);
    sim.schedule_at(arrival, [&, id] { trace.emplace_back(sim.now(), "before" + id); });
    const sim::TimeNs done = link.transmit(make_node(sizes[i], i + 1));
    most_in_flight = std::max(most_in_flight, link.packets_in_flight());
    sim.schedule_at(arrival, [&, id] { trace.emplace_back(sim.now(), "after" + id); });
    want.insert(want.end(), {{arrival, "before" + id}, {arrival, "rx" + id},
                             {arrival, "after" + id}});
    if (i + 1 < sizes.size()) sim.schedule_at(done, [&, i] { send(i + 1); });
  };
  sim.schedule_at(0, [&] { send(0); });
  sim.run();
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(trace, want);
  EXPECT_GE(most_in_flight, 3u) << "deliveries armed from the node ahead";
  EXPECT_EQ(link.packets_delivered(), sizes.size());
  EXPECT_TRUE(sim.empty());
}

// A link destroyed with packets on the wire and a wake-up armed leaves only
// tombstones: nothing pending, and a later run() dispatches none of them.
TEST(Link, DestroyedWithPacketsInFlightLeavesOnlyTombstones) {
  sim::Simulator sim;
  SinkNode sink("sink");
  {
    Link up(sim, sim::gbps(10), sim::microseconds(5), &sink);
    Host host(sim, 0, "h0");
    host.attach_uplink(&up);
    for (std::uint64_t id = 1; id <= 6; ++id) host.send(make_packet(1500, id));
    sim.run(3000);  // two on the wire, one serializing, three in the NIC
    ASSERT_EQ(up.packets_in_flight(), 3u);
    EXPECT_EQ(sim.pending_events(), 2u) << "the head's delivery and the wake-up";
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_events(), 2u);
  EXPECT_EQ(sim.queue_depth(), 2u) << "two tombstones, skipped when reached";
  const std::uint64_t executed = sim.executed_events();
  sim.run();
  EXPECT_EQ(sim.executed_events(), executed);
  EXPECT_EQ(sim.queue_depth(), 0u);
  EXPECT_TRUE(sink.arrivals.empty());
}

/// Throws on the first delivery it sees, then records like SinkNode.
class ThrowOnceNode : public Node {
 public:
  ThrowOnceNode() : Node("throw-once") {}
  void receive(PacketNodePtr node) override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("receiver failed");
    }
    arrivals.push_back(node->pkt.id);
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
  sim.schedule_at(0, [&] { link.transmit(make_node(1500, 1)); });
  sim.schedule_at(1200, [&] { link.transmit(make_node(1500, 2)); });
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
