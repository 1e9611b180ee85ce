// Pooled storage for every packet a NIC queue, a switch queue or a wire
// holds.
//
// PacketStore carves fixed-size nodes from chunks and hands them out from a
// LIFO free list, so once a run has reached its peak number of stored
// packets a hop costs no heap allocation. PacketFifo is an intrusive FIFO
// over those nodes: Host's NIC queue, every sched::Scheduler queue and
// net::Link's in-flight list are PacketFifos, and an empty one holds no
// memory. On a wire each node also carries the due (time, seq) of the node
// behind it (PacketNode::next_arrival/next_seq), written into the tail when
// the next packet is transmitted.
//
// A packet takes its node once, when Host::send stores it in the NIC queue,
// and keeps it until it leaves the fabric. The node travels as a
// PacketNodePtr: the NIC queue hands it to the wire, the wire to the next
// device, a switch port's scheduler to the next wire, and the receiving
// host, a drop or a fault's delay stage gives it back. No hop copies the
// packet or takes a second node.
//
// One store per thread (PacketStore::local()); containers carry no store
// pointer. Invariant: a container is destroyed on the thread that filled it.
// Every multi-cell path builds, runs and destroys a cell's fabric on one
// thread (a sweep worker, or a forked child under isolate=1), so nodes never
// cross stores. Chunks are freed only when the thread exits.
//
// Under AddressSanitizer the store poisons every node it takes back (all
// but the free-list link) and unpoisons it when it hands it out again, so a
// read of a delivered or dequeued packet is reported (use-after-poison).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "net/packet.hpp"

namespace pmsb::net {

/// One stored packet. `next_arrival` and `next_seq` are the wire's: on a
/// link they hold the delivery time and reserved insertion sequence of the
/// node behind this one, written when that node is transmitted, so the
/// link arms the next delivery from the node it just delivered and never
/// loads the next one. Queues and devices leave them.
struct PacketNode {
  Packet pkt;
  TimeNs next_arrival = 0;
  std::uint64_t next_seq = 0;
  PacketNode* next = nullptr;  ///< FIFO successor, or the free-list link
};

class PacketStore {
 public:
  // 128 nodes (12 KiB) per chunk, the event pool's chunk size: a small run
  // touches one or two chunks.
  static constexpr std::size_t kChunkNodes = 128;

  /// The calling thread's store.
  static PacketStore& local() {
    thread_local PacketStore store;
    return store;
  }

  ~PacketStore();
  PacketStore(const PacketStore&) = delete;
  PacketStore& operator=(const PacketStore&) = delete;

  /// Gives a node back to the calling thread's store; the deleter of
  /// PacketNodePtr.
  struct Release {
    void operator()(PacketNode* node) const { local().release(node); }
  };

  /// Hands out a node holding a copy of `pkt`, reusing the most recently
  /// released node first. Its `next` is null.
  [[nodiscard]] std::unique_ptr<PacketNode, Release> acquire(const Packet& pkt) {
    if (free_ == nullptr) grow();
    PacketNode* node = free_;
    unpoison(node);
    free_ = node->next;
    node->pkt = pkt;
    node->next = nullptr;
    ++live_;
    return std::unique_ptr<PacketNode, Release>(node);
  }

  /// Takes back a node acquire() handed out.
  void release(PacketNode* node) {
    node->next = free_;
    free_ = node;
    poison(node);
    --live_;
  }

  /// Nodes handed out and not yet released.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Nodes carved so far: chunks times kChunkNodes. Never shrinks.
  [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkNodes; }

 private:
  PacketStore() = default;  // one per thread, through local()
  void grow();

  static void poison([[maybe_unused]] PacketNode* node) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(node, offsetof(PacketNode, next));
#endif
  }
  static void unpoison([[maybe_unused]] PacketNode* node) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(node, offsetof(PacketNode, next));
#endif
  }

  std::vector<std::unique_ptr<PacketNode[]>> chunks_;
  PacketNode* free_ = nullptr;
  std::size_t live_ = 0;
};

/// A stored packet on its way between containers; the node goes back to the
/// store when the pointer goes out of scope, on a throw too.
using PacketNodePtr = std::unique_ptr<PacketNode, PacketStore::Release>;

/// FIFO of packets in the calling thread's PacketStore.
class PacketFifo {
 public:
  PacketFifo() = default;
  ~PacketFifo() { clear(); }
  PacketFifo(const PacketFifo&) = delete;
  PacketFifo& operator=(const PacketFifo&) = delete;

  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The oldest packet. Precondition: !empty().
  [[nodiscard]] const Packet& front() const { return head_->pkt; }
  /// The newest node. Precondition: !empty().
  [[nodiscard]] PacketNode& back_node() { return *tail_; }

  /// Appends `owned`, taking the node over.
  void push(PacketNodePtr owned) {
    PacketNode* node = owned.release();
    node->next = nullptr;
    if (tail_ == nullptr) {
      head_ = node;
    } else {
      tail_->next = node;
    }
    tail_ = node;
    ++size_;
  }

  /// Unlinks the oldest node and hands it over; its `next` is stale until a
  /// push. Precondition: !empty().
  [[nodiscard]] PacketNodePtr take_front() {
    PacketNode* node = head_;
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return PacketNodePtr(node);
  }

  /// Returns every node to the store.
  void clear() {
    PacketStore& store = PacketStore::local();
    while (head_ != nullptr) {
      PacketNode* node = head_;
      head_ = node->next;
      store.release(node);
    }
    tail_ = nullptr;
    size_ = 0;
  }

 private:
  PacketNode* head_ = nullptr;
  PacketNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pmsb::net
