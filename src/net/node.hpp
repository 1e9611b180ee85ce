// Abstract network device. Hosts and switches implement `receive`, which a
// Link invokes when a packet finishes propagation. The link passes the
// packet where it lies in its store node and reclaims the node once
// `receive` returns, so a device copies whatever it keeps.
#pragma once

#include <string>

#include "net/packet.hpp"

namespace pmsb::net {

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Delivers a packet that has fully arrived at this device. `pkt` is valid
  /// only until this returns.
  virtual void receive(const Packet& pkt) = 0;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace pmsb::net
