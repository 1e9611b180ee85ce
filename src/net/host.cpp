#include "net/host.hpp"

#include <stdexcept>

namespace pmsb::net {

void Host::send(Packet pkt) {
  if (uplink_ == nullptr) {
    throw std::logic_error("Host::send: no uplink attached to " + name());
  }
  pkt.sent_time = sim_.now();
  ++sent_;
  nic_bytes_ += pkt.size_bytes;
  nic_queue_.push(pkt);
  uplink_->kick();
}

Packet Host::pull() {
  Packet pkt = nic_queue_.pop();
  nic_bytes_ -= pkt.size_bytes;
  return pkt;
}

void Host::receive(const Packet& pkt) {
  if (demux_ != nullptr && demux_->deliver(*this, pkt)) {
    ++delivered_;
  } else {
    ++no_handler_;
  }
}

}  // namespace pmsb::net
