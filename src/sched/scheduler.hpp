// Packet scheduler interface for multi-queue switch ports.
//
// A Scheduler owns the per-queue packet storage of one output port and
// decides dequeue order. The owning Port drives it: `enqueue(q, pkt)` on
// classification, `dequeue(now)` whenever the link goes idle. Each queue is
// a net::PacketFifo in the thread's PacketStore: an enqueue takes a pooled
// node, a dequeue gives it back, and an empty queue holds no memory.
//
// Round-based schedulers (WRR, DWRR) additionally report when a full
// scheduling round — one pass over all backlogged queues — completes; the
// MQ-ECN marking scheme consumes those events to estimate T_round (Eq. 3 of
// the PMSB paper). Schedulers without rounds (WFQ, SP) never emit them,
// which is exactly why MQ-ECN cannot run on them (paper Table I).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_store.hpp"
#include "sim/time.hpp"

namespace pmsb::sched {

using net::Packet;
using sim::TimeNs;

/// Result of a dequeue: the packet and the queue it came from.
struct Dequeued {
  Packet pkt;
  std::size_t queue = 0;
};

class Scheduler {
 public:
  /// Fired when a scheduling round completes (round-based schedulers only).
  using RoundObserver = std::function<void(TimeNs)>;

  Scheduler(std::size_t num_queues, std::vector<double> weights);
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Stores a copy of `pkt` in queue `q`.
  void enqueue(std::size_t q, const Packet& pkt);

  /// Removes and returns the next packet to transmit, or nullopt if idle.
  [[nodiscard]] std::optional<Dequeued> dequeue(TimeNs now);

  /// Human-readable scheduler name ("DWRR", "WFQ", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// True if the discipline serves queues in rounds (WRR/DWRR).
  [[nodiscard]] virtual bool round_based() const { return false; }

  // --- Introspection used by ECN marking schemes and tests ---
  [[nodiscard]] std::size_t num_queues() const { return queues_.size(); }
  [[nodiscard]] std::uint64_t queue_bytes(std::size_t q) const { return qbytes_.at(q); }
  [[nodiscard]] std::size_t queue_packets(std::size_t q) const {
    return queues_.at(q).size();
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::size_t total_packets() const { return total_packets_; }
  [[nodiscard]] bool empty() const { return total_packets_ == 0; }
  [[nodiscard]] double weight(std::size_t q) const { return weights_.at(q); }
  [[nodiscard]] double weight_sum() const { return weight_sum_; }
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

  /// Bytes `dequeue` has handed out per queue (for fairness tests).
  [[nodiscard]] std::uint64_t served_bytes(std::size_t q) const { return served_.at(q); }
  /// Packets `dequeue` has handed out per queue.
  [[nodiscard]] std::uint64_t served_packets(std::size_t q) const {
    return served_packets_.at(q);
  }

  void set_round_observer(RoundObserver obs) { round_observer_ = std::move(obs); }

 protected:
  /// Subclass hook: pick the queue to serve next. Called only when at least
  /// one queue is backlogged; must return a backlogged queue index.
  virtual std::size_t select_queue(TimeNs now) = 0;

  /// Subclass hook: observe an enqueue (for virtual-time bookkeeping).
  virtual void on_enqueue(std::size_t q, const Packet& pkt) {
    (void)q;
    (void)pkt;
  }

  /// Subclass hook: observe a completed dequeue.
  virtual void on_dequeue(std::size_t q, const Packet& pkt) {
    (void)q;
    (void)pkt;
  }

  [[nodiscard]] bool backlogged(std::size_t q) const { return !queues_[q].empty(); }
  [[nodiscard]] const Packet& head(std::size_t q) const { return queues_[q].front(); }

  void notify_round_complete(TimeNs now) {
    if (round_observer_) round_observer_(now);
  }

 private:
  std::vector<net::PacketFifo> queues_;
  std::vector<std::uint64_t> qbytes_;
  std::vector<std::uint64_t> served_;
  std::vector<std::uint64_t> served_packets_;
  std::vector<double> weights_;
  double weight_sum_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::size_t total_packets_ = 0;
  RoundObserver round_observer_;
};

}  // namespace pmsb::sched
