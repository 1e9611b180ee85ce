#include "net/host.hpp"

#include <stdexcept>
#include <utility>

namespace pmsb::net {

void Host::send(Packet pkt) {
  if (uplink_ == nullptr) {
    throw std::logic_error("Host::send: no uplink attached to " + name());
  }
  pkt.sent_time = sim_.now();
  ++sent_;
  nic_bytes_ += pkt.size_bytes;
  nic_queue_.push_back(std::move(pkt));
  uplink_->kick();
}

Packet Host::pull() {
  Packet pkt = std::move(nic_queue_.front());
  nic_queue_.pop_front();
  nic_bytes_ -= pkt.size_bytes;
  return pkt;
}

void Host::receive(Packet pkt) {
  auto it = handlers_.find(pkt.flow_id);
  if (it == handlers_.end()) {
    ++no_handler_;
    return;
  }
  ++delivered_;
  // Copy the handler: the callback may unregister the flow (e.g. on FIN),
  // which would invalidate the iterator mid-call.
  PacketHandler handler = it->second;
  handler(std::move(pkt));
}

}  // namespace pmsb::net
