// Tests for the switch output port: classification, drop-tail, marking at
// enqueue vs dequeue, transmit loop pacing, and the nodes it stores, drops
// and hands on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/node.hpp"
#include "switchlib/port.hpp"

using namespace pmsb;
using namespace pmsb::switchlib;

namespace {

class SinkNode : public net::Node {
 public:
  explicit SinkNode() : Node("sink") {}
  void receive(net::PacketNodePtr node) override { arrivals.push_back(node->pkt); }
  std::vector<net::Packet> arrivals;
};

/// A packet in its own store node, as a wire delivers it to the port.
net::PacketNodePtr node(const net::Packet& p) { return net::PacketStore::local().acquire(p); }

net::Packet data_pkt(net::ServiceId service, std::uint32_t size = 1500) {
  net::Packet p;
  p.service = service;
  p.size_bytes = size;
  p.ect = true;
  return p;
}

PortConfig two_queue_config() {
  PortConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kNone;
  cfg.buffer_bytes = 10 * 1500;
  return cfg;
}

}  // namespace

TEST(Port, ClassifiesByServiceModQueues) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  Port port(sim, &link, two_queue_config());
  sim.schedule_at(0, [&] {
    port.handle(node(data_pkt(0)));
    port.handle(node(data_pkt(1)));
    port.handle(node(data_pkt(3)));  // 3 % 2 -> queue 1
    // First packet is already in flight; the other two are queued.
    EXPECT_EQ(port.queue_bytes(1), 2u * 1500u);
  });
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
}

TEST(Port, TransmitsBackToBackAtLineRate) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  Port port(sim, &link, two_queue_config());
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) port.handle(node(data_pkt(0)));
  });
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 5u);
  EXPECT_EQ(sim.now(), 5 * 1200);
  EXPECT_EQ(port.stats().dequeued_packets, 5u);
}

TEST(Port, DropTailBeyondBufferLimit) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  auto cfg = two_queue_config();
  cfg.buffer_bytes = 3 * 1500;
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    // First goes straight to the wire (leaves the buffer), then 3 fit, the
    // rest drop.
    for (int i = 0; i < 8; ++i) port.handle(node(data_pkt(0)));
  });
  sim.run();
  EXPECT_EQ(port.stats().dropped_packets, 4u);
  EXPECT_EQ(sink.arrivals.size(), 4u);
}

// A dropped packet's node goes back to the store at once; a served one
// stays held until the sink lets it go.
TEST(Port, DropsGiveTheirNodesBack) {
  net::PacketStore& store = net::PacketStore::local();
  const std::size_t before = store.live();
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), sim::microseconds(5), &sink);
  auto cfg = two_queue_config();
  cfg.buffer_bytes = 3 * 1500;
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 8; ++i) port.handle(node(data_pkt(0)));
    // One on the wire, three queued; four dropped and released.
    EXPECT_EQ(store.live(), before + 4);
  });
  sim.run();
  EXPECT_EQ(port.stats().dropped_packets, 4u);
  EXPECT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(store.live(), before);
}

TEST(Port, EnqueueMarkingSetsCe) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  auto cfg = two_queue_config();
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 2 * 1500;
  cfg.marking.point = ecn::MarkPoint::kEnqueue;
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) port.handle(node(data_pkt(0)));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 5u);
  // Packet 0 leaves immediately (port empty at decision: 1 pkt < 2); packet
  // 1 sees 1 buffered + itself = 2 -> marked, and so on.
  EXPECT_FALSE(sink.arrivals[0].ce);
  int marked = 0;
  for (const auto& p : sink.arrivals) marked += p.ce ? 1 : 0;
  EXPECT_EQ(marked, static_cast<int>(port.stats().marked_enqueue));
  EXPECT_GE(marked, 3);
}

TEST(Port, DequeueMarkingUsesStateBeforeRemoval) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  auto cfg = two_queue_config();
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 2 * 1500;
  cfg.marking.point = ecn::MarkPoint::kDequeue;
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) port.handle(node(data_pkt(0)));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  // Packet 0 departs with only itself in the buffer (1500 < 3000): clean.
  // Packet 1 departs while packet 2 is still queued (3000 >= 3000): marked.
  // Packet 2 departs alone: clean.
  EXPECT_FALSE(sink.arrivals[0].ce);
  EXPECT_TRUE(sink.arrivals[1].ce);
  EXPECT_FALSE(sink.arrivals[2].ce);
  EXPECT_EQ(port.stats().marked_dequeue, 1u);
  EXPECT_EQ(port.stats().marked_enqueue, 0u);
}

TEST(Port, NonEctPacketsNeverMarked) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  auto cfg = two_queue_config();
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 0;  // mark everything eligible
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    auto p = data_pkt(0);
    p.ect = false;
    port.handle(node(p));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_FALSE(sink.arrivals[0].ce);
  EXPECT_EQ(port.stats().marked_enqueue, 0u);
}

TEST(Port, AlreadyMarkedPacketNotDoubleCounted) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  auto cfg = two_queue_config();
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 0;
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    auto p = data_pkt(0);
    p.ce = true;  // marked upstream
    port.handle(node(p));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_TRUE(sink.arrivals[0].ce);
  EXPECT_EQ(port.stats().marked_enqueue, 0u);
}

TEST(Port, EnqueueTimestampStamped) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  Port port(sim, &link, two_queue_config());
  sim.schedule_at(4242, [&] { port.handle(node(data_pkt(0))); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].enqueue_time, 4242);
}

TEST(Port, MarkedPerQueueCountsByQueue) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  auto cfg = two_queue_config();
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 1500;
  Port port(sim, &link, cfg);
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 6; ++i) port.handle(node(data_pkt(i % 2)));
  });
  sim.run();
  const auto& st = port.stats();
  EXPECT_EQ(st.marked_per_queue.size(), 2u);
  EXPECT_EQ(st.marked_per_queue[0] + st.marked_per_queue[1], st.marked_enqueue);
}

namespace {

struct DequeueLog final : net::PacketObserver {
  void on_dequeue(net::SiteId, sim::TimeNs now, const net::Packet& pkt, std::size_t,
                  std::uint64_t) override {
    log.emplace_back(now, pkt.id);
  }
  std::vector<std::pair<sim::TimeNs, std::uint64_t>> log;
};

/// Packet A (queue 1) goes to the wire at 0 and finishes at 1200. At exactly
/// 1200 one event hands the port C (queue 1) and then B (queue 0); it is
/// ordered before A's tx-done wake-up when scheduled at set-up, and after it
/// when scheduled from inside the t=0 event, after A's transmit.
std::vector<std::pair<sim::TimeNs, std::uint64_t>> dequeues_with_arrivals_at_tx_done(
    bool before_wakeup) {
  sim::Simulator sim;
  SinkNode sink;
  net::Link link(sim, sim::gbps(10), 0, &sink);
  Port port(sim, &link, two_queue_config());
  DequeueLog log;
  port.add_observer(&log);
  const auto packet = [](net::ServiceId service, std::uint64_t id) {
    auto p = data_pkt(service);
    p.id = id;
    return p;
  };
  const auto arrivals = [&] {
    port.handle(node(packet(1, 3)));  // C
    port.handle(node(packet(0, 2)));  // B
  };
  if (before_wakeup) sim.schedule_at(1200, arrivals);
  sim.schedule_at(0, [&] {
    port.handle(node(packet(1, 1)));  // A
    if (!before_wakeup) sim.schedule_at(1200, arrivals);
  });
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  return log.log;
}

}  // namespace

// A packet enqueued exactly at tx_done must leave as under a loop that
// always queues its tx-done wake-up. Before the wake-up, both arrivals are
// queued when it dequeues; DWRR's cursor sits on queue 1 with A's quantum
// spent, so B (queue 0) goes first. After the wake-up, which found nothing
// to send, the port is idle: C goes out the moment it arrives.
TEST(Port, EnqueueAtTxDoneMatchesEagerWakeupOrder) {
  using Dequeue = std::pair<sim::TimeNs, std::uint64_t>;
  EXPECT_EQ(dequeues_with_arrivals_at_tx_done(true),
            (std::vector<Dequeue>{{0, 1}, {1200, 2}, {2400, 3}}));
  EXPECT_EQ(dequeues_with_arrivals_at_tx_done(false),
            (std::vector<Dequeue>{{0, 1}, {1200, 3}, {2400, 2}}));
}
