#include "net/host.hpp"

#include <stdexcept>
#include <utility>

namespace pmsb::net {

void Host::send(const Packet& pkt) {
  if (uplink_ == nullptr) {
    throw std::logic_error("Host::send: no uplink attached to " + name());
  }
  PacketNodePtr node = PacketStore::local().acquire(pkt);
  node->pkt.sent_time = sim_.now();
  ++sent_;
  nic_bytes_ += pkt.size_bytes;
  nic_queue_.push(std::move(node));
  uplink_->kick();
}

PacketNodePtr Host::pull() {
  PacketNodePtr node = nic_queue_.take_front();
  nic_bytes_ -= node->pkt.size_bytes;
  return node;
}

void Host::receive(PacketNodePtr node) {
  if (demux_ != nullptr && demux_->deliver(*this, node->pkt)) {
    ++delivered_;
  } else {
    ++no_handler_;
  }
}

}  // namespace pmsb::net
