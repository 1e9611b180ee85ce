// Abstract network device. Hosts and switches implement `receive`, which a
// Link invokes when a packet finishes propagation. The link hands over the
// packet's store node: a device keeps it (a switch port queues it), passes
// it on (a fault's delay stage), or lets it go back to the store (a host
// after its demux, a drop).
#pragma once

#include <string>

#include "net/packet.hpp"
#include "net/packet_store.hpp"

namespace pmsb::net {

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Delivers a packet that has fully arrived at this device, in its node.
  virtual void receive(PacketNodePtr node) = 0;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace pmsb::net
