#include "sched/scheduler.hpp"

#include <cassert>
#include <numeric>
#include <utility>

namespace pmsb::sched {

Scheduler::Scheduler(std::size_t num_queues, std::vector<double> weights)
    : queues_(num_queues),
      backlog_bits_((num_queues + 63) / 64, 0),
      qbytes_(num_queues, 0),
      served_(num_queues, 0),
      served_packets_(num_queues, 0),
      weights_(std::move(weights)) {
  if (num_queues == 0) throw std::invalid_argument("Scheduler: need >= 1 queue");
  if (weights_.empty()) weights_.assign(num_queues, 1.0);
  if (weights_.size() != num_queues) {
    throw std::invalid_argument("Scheduler: weight count != queue count");
  }
  for (double w : weights_) {
    if (w <= 0) throw std::invalid_argument("Scheduler: weights must be positive");
  }
  weight_sum_ = std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

void Scheduler::enqueue(std::size_t q, net::PacketNodePtr node) {
  if (q >= queues_.size()) throw std::out_of_range("Scheduler::enqueue: bad queue");
  const Packet& pkt = node->pkt;
  qbytes_[q] += pkt.size_bytes;
  total_bytes_ += pkt.size_bytes;
  ++total_packets_;
  on_enqueue(q, pkt);
  backlog_bits_[q / 64] |= std::uint64_t{1} << (q % 64);
  queues_[q].push(std::move(node));
}

std::optional<Dequeued> Scheduler::dequeue(TimeNs now) {
  if (total_packets_ == 0) return std::nullopt;
  const std::size_t q = select_queue(now);
  assert(q < queues_.size() && backlogged(q));
  net::PacketNodePtr node = queues_[q].take_front();
  if (queues_[q].empty()) backlog_bits_[q / 64] &= ~(std::uint64_t{1} << (q % 64));
  const Packet& pkt = node->pkt;
  qbytes_[q] -= pkt.size_bytes;
  total_bytes_ -= pkt.size_bytes;
  --total_packets_;
  served_[q] += pkt.size_bytes;
  ++served_packets_[q];
  on_dequeue(q, pkt);
  return Dequeued{std::move(node), q};
}

}  // namespace pmsb::sched
