// Output-queued switch: a routing table plus one Port per egress link.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/node.hpp"
#include "net/routing.hpp"
#include "switchlib/port.hpp"

namespace pmsb::switchlib {

class Switch : public net::Node {
 public:
  /// `ecmp_salt` decorrelates path choices across switches so two switches
  /// do not always pick the same uplink for the same flow.
  Switch(sim::Simulator& simulator, std::string name, std::uint64_t ecmp_salt = 0)
      : Node(std::move(name)), sim_(simulator), ecmp_salt_(ecmp_salt) {}

  /// Adds an egress port transmitting on `link`; returns its index.
  std::size_t add_port(net::Link* link, const PortConfig& config) {
    ports_.push_back(std::make_unique<Port>(sim_, link, config));
    return ports_.size() - 1;
  }

  [[nodiscard]] net::RoutingTable& routing() { return routing_; }
  [[nodiscard]] const net::RoutingTable& routing() const { return routing_; }

  [[nodiscard]] Port& port(std::size_t idx) { return *ports_.at(idx); }
  [[nodiscard]] const Port& port(std::size_t idx) const { return *ports_.at(idx); }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }

  void receive(const net::Packet& pkt) override {
    const std::size_t egress = routing_.select_port(pkt, ecmp_salt_);
    ports_[egress]->handle(pkt);
  }

 private:
  sim::Simulator& sim_;
  std::uint64_t ecmp_salt_;
  net::RoutingTable routing_;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace pmsb::switchlib
