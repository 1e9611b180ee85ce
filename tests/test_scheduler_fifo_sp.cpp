// Unit tests for the FIFO and Strict Priority schedulers.
#include <gtest/gtest.h>

#include "sched/fifo.hpp"
#include "sched/sp.hpp"

using namespace pmsb;
using namespace pmsb::sched;

namespace {
Packet pkt(std::uint64_t id, std::uint32_t size = 1500) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  return p;
}
}  // namespace

TEST(Fifo, EmptyDequeueReturnsNullopt) {
  FifoScheduler s(2);
  EXPECT_FALSE(s.dequeue(0).has_value());
  EXPECT_TRUE(s.empty());
}

TEST(Fifo, GlobalArrivalOrderAcrossQueues) {
  FifoScheduler s(3);
  s.enqueue(2, pkt(1));
  s.enqueue(0, pkt(2));
  s.enqueue(1, pkt(3));
  EXPECT_EQ(s.dequeue(0)->pkt->pkt.id, 1u);
  EXPECT_EQ(s.dequeue(0)->pkt->pkt.id, 2u);
  EXPECT_EQ(s.dequeue(0)->pkt->pkt.id, 3u);
}

TEST(Fifo, ByteAndPacketAccounting) {
  FifoScheduler s(2);
  s.enqueue(0, pkt(1, 1000));
  s.enqueue(1, pkt(2, 500));
  EXPECT_EQ(s.total_bytes(), 1500u);
  EXPECT_EQ(s.queue_bytes(0), 1000u);
  EXPECT_EQ(s.queue_bytes(1), 500u);
  EXPECT_EQ(s.total_packets(), 2u);
  (void)s.dequeue(0);
  EXPECT_EQ(s.total_bytes(), 500u);
}

TEST(Fifo, BadQueueIndexThrows) {
  FifoScheduler s(2);
  EXPECT_THROW(s.enqueue(2, pkt(1)), std::out_of_range);
}

TEST(Fifo, ServedBytesTracksDequeues) {
  FifoScheduler s(2);
  s.enqueue(0, pkt(1, 100));
  s.enqueue(1, pkt(2, 200));
  (void)s.dequeue(0);
  (void)s.dequeue(0);
  EXPECT_EQ(s.served_bytes(0), 100u);
  EXPECT_EQ(s.served_bytes(1), 200u);
}

TEST(Sp, LowerIndexWins) {
  SpScheduler s(3);
  s.enqueue(2, pkt(1));
  s.enqueue(0, pkt(2));
  s.enqueue(1, pkt(3));
  EXPECT_EQ(s.dequeue(0)->queue, 0u);
  EXPECT_EQ(s.dequeue(0)->queue, 1u);
  EXPECT_EQ(s.dequeue(0)->queue, 2u);
}

TEST(Sp, HighPriorityStarvesLow) {
  SpScheduler s(2);
  for (int i = 0; i < 5; ++i) s.enqueue(0, pkt(i));
  s.enqueue(1, pkt(100));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.dequeue(0)->queue, 0u);
  EXPECT_EQ(s.dequeue(0)->queue, 1u);
}

TEST(Sp, FifoWithinQueue) {
  SpScheduler s(2);
  s.enqueue(0, pkt(1));
  s.enqueue(0, pkt(2));
  EXPECT_EQ(s.dequeue(0)->pkt->pkt.id, 1u);
  EXPECT_EQ(s.dequeue(0)->pkt->pkt.id, 2u);
}

TEST(Sp, NotRoundBased) {
  SpScheduler s(2);
  EXPECT_FALSE(s.round_based());
  bool fired = false;
  s.set_round_observer([&](sim::TimeNs) { fired = true; });
  for (int i = 0; i < 10; ++i) s.enqueue(i % 2, pkt(i));
  while (s.dequeue(0)) {
  }
  EXPECT_FALSE(fired);
}

TEST(SchedulerBase, RejectsZeroQueues) {
  EXPECT_THROW(FifoScheduler(0), std::invalid_argument);
}

TEST(SchedulerBase, RejectsBadWeights) {
  EXPECT_THROW(SpScheduler(2, {1.0}), std::invalid_argument);
  EXPECT_THROW(SpScheduler(2, {1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(SpScheduler(2, {1.0, 0.0}), std::invalid_argument);
}

TEST(SchedulerBase, DefaultWeightsAreUniform) {
  SpScheduler s(4);
  EXPECT_DOUBLE_EQ(s.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(s.weight_sum(), 4.0);
}
