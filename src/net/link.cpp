#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace pmsb::net {

void Link::kick() {
  if (wake_.armed()) return;  // the wake-up will pull the packet
  if (sim_.current_before(busy_until_, wake_seq_)) {
    wake_.arm(busy_until_, wake_seq_);
    return;
  }
  // The reserved wake-up's position has passed, and it would have found
  // nothing to send: the link is idle.
  send_next();
}

void Link::send_next() {
  // The wake-up is armed only with a packet waiting, and only this link
  // pulls.
  assert(source_ != nullptr && source_->has_packet());
  transmit(source_->pull());
  wake_seq_ = sim_.reserve_seq();
  if (source_->has_packet()) wake_.arm(busy_until_, wake_seq_);
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
  const TimeNs arrival = tx_done + delay_;
  // The delivery's seq is reserved before the wake-up's, the order in which
  // an eager loop would have scheduled the two.
  const std::uint64_t seq = sim_.reserve_seq();
  if (in_flight_.empty()) {
    delivery_.arm(arrival, seq);
  } else {
    PacketNode& tail = in_flight_.back_node();
    tail.next_arrival = arrival;
    tail.next_seq = seq;
  }
  in_flight_.push(std::move(node));
  return tx_done;
}

void Link::deliver_head() {
  // Unlink the head and arm the next delivery before handing this packet
  // over, so a receiver that throws leaves the link consistent; the node
  // goes back to the store on that throw.
  PacketNodePtr node = in_flight_.take_front();
  if (!in_flight_.empty()) delivery_.arm(node->next_arrival, node->next_seq);
  ++packets_delivered_;
  // now == tx_done + delay_, so the serialization-complete instant is
  // recoverable without storing it alongside the packet.
  taps_.notify(&PacketObserver::on_link_rx, sim_.now(), node->pkt, sim_.now() - delay_);
  dst_->receive(std::move(node));
}

}  // namespace pmsb::net
