#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace pmsb::net {

void Link::kick() {
  if (wake_queued_) return;  // the wake-up will pull the packet
  if (sim_.current_before(busy_until_, wake_seq_)) {
    queue_wake();
    return;
  }
  // The reserved wake-up's position has passed, and it would have found
  // nothing to send: the link is idle.
  send_next();
}

void Link::send_next() {
  assert(source_ != nullptr && source_->has_packet());
  transmit(source_->pull());
  wake_seq_ = sim_.reserve_seq();
  if (source_->has_packet()) queue_wake();
}

void Link::queue_wake() {
  wake_queued_ = true;
  sim_.schedule_reserved(busy_until_, wake_seq_, [this] {
    wake_queued_ = false;
    // Queued only with a packet waiting, and only this link pulls.
    send_next();
  });
}

TimeNs Link::transmit(PacketNodePtr node) {
  assert(!busy() && "Link::transmit called while a packet is serializing");
  const Packet& pkt = node->pkt;
  const TimeNs now = sim_.now();
  const TimeNs tx_done = now + sim::serialization_delay(pkt.size_bytes, rate_);
  busy_until_ = tx_done;
  bytes_sent_ += pkt.size_bytes;
  ++packets_sent_;
  taps_.notify(&PacketObserver::on_link_tx, now, pkt, tx_done);
  node->arrival = tx_done + delay_;
  // The delivery's seq is reserved before the wake-up's, the order in which
  // an eager loop would have scheduled the two.
  node->seq = sim_.reserve_seq();
  const bool was_idle = in_flight_.empty();
  in_flight_.push(std::move(node));
  if (was_idle) queue_head_delivery();
  return tx_done;
}

void Link::queue_head_delivery() {
  const PacketNode& head = in_flight_.front_node();
  sim_.schedule_reserved(head.arrival, head.seq, [this] { deliver_head(); });
}

void Link::deliver_head() {
  // Unlink the head and queue the next delivery before handing this packet
  // over, so a receiver that throws leaves the link consistent; the node
  // goes back to the store on that throw.
  PacketNodePtr node = in_flight_.take_front();
  if (!in_flight_.empty()) queue_head_delivery();
  ++packets_delivered_;
  // now == tx_done + delay_, so the serialization-complete instant is
  // recoverable without storing it alongside the packet.
  taps_.notify(&PacketObserver::on_link_rx, sim_.now(), node->pkt, sim_.now() - delay_);
  dst_->receive(std::move(node));
}

}  // namespace pmsb::net
