#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace pmsb::net {

Link::~Link() {
  // Free the in-flight list iteratively; the default would recurse once per
  // packet on the wire.
  while (head_ != nullptr) head_ = std::move(head_->next);
}

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

TimeNs Link::transmit(Packet pkt) {
  assert(!busy() && "Link::transmit called while a packet is serializing");
  const TimeNs now = sim_.now();
  const TimeNs tx_done = now + sim::serialization_delay(pkt.size_bytes, rate_);
  busy_until_ = tx_done;
  bytes_sent_ += pkt.size_bytes;
  ++packets_sent_;
  taps_.notify(&PacketObserver::on_link_tx, now, pkt, tx_done);
  // The delivery's seq is reserved before the wake-up's, the order in which
  // an eager loop would have scheduled the two.
  std::unique_ptr<InFlight> node(
      new InFlight{tx_done + delay_, sim_.reserve_seq(), std::move(pkt), nullptr});
  InFlight* const last = node.get();
  if (tail_ == nullptr) {
    head_ = std::move(node);
    queue_head_delivery();
  } else {
    tail_->next = std::move(node);
  }
  tail_ = last;
  return tx_done;
}

void Link::queue_head_delivery() {
  sim_.schedule_reserved(head_->arrival, head_->seq, [this] { deliver_head(); });
}

void Link::deliver_head() {
  const std::unique_ptr<InFlight> node = std::move(head_);
  // Queue the next delivery before handing this packet over, so a receiver
  // that throws leaves the link consistent.
  head_ = std::move(node->next);
  if (head_ != nullptr) {
    queue_head_delivery();
  } else {
    tail_ = nullptr;
  }
  ++packets_delivered_;
  // now == tx_done + delay_, so the serialization-complete instant is
  // recoverable without storing it alongside the packet.
  taps_.notify(&PacketObserver::on_link_rx, sim_.now(), node->pkt, sim_.now() - delay_);
  dst_->receive(std::move(node->pkt));
}

}  // namespace pmsb::net
