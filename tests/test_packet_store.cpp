// Tests for net::PacketStore and net::PacketFifo: FIFO order over pooled
// nodes, nodes handed from one FIFO to another, node accounting when a
// container dies full, chunk reuse across fill-and-drain cycles, and one
// store per thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "net/packet_store.hpp"
#include "sched/factory.hpp"

using namespace pmsb;
using namespace pmsb::net;

namespace {

Packet make_packet(std::uint64_t id, std::uint32_t size = 1500) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  return p;
}

/// A packet in a node of its own, as Host::send stores it.
PacketNodePtr make_node(std::uint64_t id) { return PacketStore::local().acquire(make_packet(id)); }

/// Nodes in whole chunks needed to hold `live` packets at once.
std::size_t chunks_for(std::size_t live) {
  const std::size_t n = PacketStore::kChunkNodes;
  return (live + n - 1) / n * n;
}

}  // namespace

TEST(PacketFifo, KeepsOrderAcrossChunkBoundaries) {
  PacketFifo fifo;
  const std::uint64_t n = 3 * PacketStore::kChunkNodes + 5;
  for (std::uint64_t i = 0; i < n; ++i) fifo.push(make_node(i));
  ASSERT_EQ(fifo.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(fifo.front().id, i);
    EXPECT_EQ(fifo.take_front()->pkt.id, i);
  }
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.size(), 0u);
}

TEST(PacketFifo, InterleavedFifosSharingTheStoreKeepTheirOwnOrder) {
  // Interleaved pushes and pops hand each FIFO nodes the other just freed,
  // so neighbouring nodes belong to different FIFOs.
  std::vector<PacketFifo> fifos(3);
  std::vector<std::uint64_t> next_in(3, 0);
  std::vector<std::uint64_t> next_out(3, 0);
  for (std::uint64_t step = 0; step < 2000; ++step) {
    const std::size_t f = (step * 7) % 3;
    if (step % 5 == 4 && !fifos[f].empty()) {
      EXPECT_EQ(fifos[f].take_front()->pkt.id, f * 1'000'000 + next_out[f]++);
    } else {
      fifos[f].push(make_node(f * 1'000'000 + next_in[f]++));
    }
  }
  for (std::size_t f = 0; f < fifos.size(); ++f) {
    EXPECT_EQ(fifos[f].size(), next_in[f] - next_out[f]);
    while (!fifos[f].empty()) {
      EXPECT_EQ(fifos[f].take_front()->pkt.id, f * 1'000'000 + next_out[f]++);
    }
    EXPECT_EQ(next_out[f], next_in[f]);
  }
}

TEST(PacketFifo, TakeFrontHandsOverTheNodeUntilItsScopeEnds) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  PacketFifo fifo;
  PacketNodePtr pushed = make_node(7);
  pushed->next_arrival = 1234;
  pushed->next_seq = 99;
  fifo.push(std::move(pushed));
  fifo.push(make_node(8));
  {
    const PacketNodePtr node = fifo.take_front();
    EXPECT_EQ(node->pkt.id, 7u);
    EXPECT_EQ(node->next_arrival, 1234) << "the wire's fields travel with the node";
    EXPECT_EQ(node->next_seq, 99u);
    EXPECT_EQ(fifo.size(), 1u);
    EXPECT_EQ(fifo.front().id, 8u);
    EXPECT_EQ(store.live(), before + 2);  // still held by `node`
  }
  EXPECT_EQ(store.live(), before + 1);
}

// A node taken off one FIFO and pushed onto another keeps its address and
// packet, and its stale successor link never leaks into the new FIFO.
TEST(PacketFifo, NodesMoveBetweenFifosWithoutNewNodes) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  PacketFifo a;
  PacketFifo b;
  for (std::uint64_t i = 0; i < 6; ++i) a.push(make_node(i));
  std::vector<const Packet*> moved;
  for (int i = 0; i < 3; ++i) {
    moved.push_back(&a.front());
    b.push(a.take_front());
  }
  EXPECT_EQ(store.live(), before + 6);
  ASSERT_EQ(b.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(&b.front(), moved[i]);
    EXPECT_EQ(b.take_front()->pkt.id, i);
  }
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.front().id, 3u);
  EXPECT_EQ(store.live(), before + 3);
}

TEST(PacketStore, ContainersDestroyedFullReturnEveryNode) {
  PacketStore& store = PacketStore::local();
  const std::size_t before = store.live();
  {
    PacketFifo fifo;
    for (std::uint64_t i = 0; i < 300; ++i) fifo.push(make_node(i));
    EXPECT_EQ(store.live(), before + 300);
  }
  EXPECT_EQ(store.live(), before);

  {
    sched::SchedulerConfig cfg;
    cfg.kind = sched::SchedulerKind::kDwrr;
    cfg.num_queues = 4;
    auto sched = sched::make_scheduler(cfg);
    for (std::uint64_t i = 0; i < 200; ++i) sched->enqueue(i % 4, make_packet(i));
    (void)sched->dequeue(0);
    EXPECT_EQ(store.live(), before + 199);
  }
  EXPECT_EQ(store.live(), before);
}

TEST(PacketStore, FillAndDrainCyclesReuseTheSameChunks) {
  // The no-allocation-per-packet property: after the first fill the store
  // never grows again, and it holds only the chunks that fill needed.
  PacketStore& store = PacketStore::local();
  const std::size_t live_before = store.live();
  const std::size_t capacity_before = store.capacity();
  const std::size_t peak = 2 * PacketStore::kChunkNodes + 17;
  PacketFifo a;
  PacketFifo b;
  std::size_t capacity_after_first = 0;
  for (int cycle = 0; cycle < 500; ++cycle) {
    for (std::size_t i = 0; i < peak; ++i) {
      (i % 2 == 0 ? a : b).push(make_node(i));
    }
    EXPECT_EQ(store.live(), live_before + peak);
    while (!a.empty()) (void)a.take_front();
    while (!b.empty()) (void)b.take_front();
    if (cycle == 0) capacity_after_first = store.capacity();
    ASSERT_EQ(store.capacity(), capacity_after_first) << "cycle " << cycle;
  }
  EXPECT_EQ(store.live(), live_before);
  EXPECT_LE(capacity_after_first, std::max(capacity_before, chunks_for(live_before + peak)));
}

TEST(PacketStore, EachThreadFillsOnlyItsOwnStore) {
  PacketStore& main_store = PacketStore::local();
  const std::size_t main_live = main_store.live();
  constexpr std::size_t kThreads = 2;
  constexpr std::size_t kPackets = 500;
  std::barrier all_full(kThreads);
  std::vector<const PacketStore*> stores(kThreads, nullptr);
  std::vector<std::size_t> live_when_full(kThreads, 0);
  std::vector<std::size_t> live_after(kThreads, 1);
  std::vector<std::uint64_t> order_errors(kThreads, 0);
  auto worker = [&](std::size_t t) {
    PacketStore& store = PacketStore::local();
    stores[t] = &store;
    {
      PacketFifo fifo;
      for (std::size_t i = 0; i < kPackets; ++i) fifo.push(make_node(t * kPackets + i));
      // Both threads hold their packets here at the same time.
      all_full.arrive_and_wait();
      live_when_full[t] = store.live();
      all_full.arrive_and_wait();
      for (std::size_t i = 0; i < kPackets; ++i) {
        if (fifo.take_front()->pkt.id != t * kPackets + i) ++order_errors[t];
      }
    }
    live_after[t] = store.live();
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  EXPECT_NE(stores[0], stores[1]);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_NE(stores[t], &main_store);
    EXPECT_EQ(live_when_full[t], kPackets) << "thread " << t;
    EXPECT_EQ(live_after[t], 0u) << "thread " << t;
    EXPECT_EQ(order_errors[t], 0u) << "thread " << t;
  }
  EXPECT_EQ(main_store.live(), main_live);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PacketStoreDeathTest, ReadingADequeuedPacketIsReported) {
  auto read_after_take = [] {
    PacketFifo fifo;
    fifo.push(make_node(1));
    const Packet* stale = &fifo.front();
    (void)fifo.take_front();  // the node goes back to the store here
    volatile std::uint64_t id = stale->id;
    (void)id;
  };
  EXPECT_DEATH(read_after_take(), "use-after-poison");
}
#endif
