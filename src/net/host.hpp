// End host: a NIC with a FIFO egress queue plus one flow demux that hands
// every arriving packet to the transport endpoints of its flow: the flow
// table of the fabric that built the host, or whichever table a scenario
// makes the host's demux (transport::DcqcnFlowTable).
//
// The NIC egress queue is effectively unbounded — end-host memory is not the
// bottleneck the paper studies — but its backlog is observable for tests.
// It is a PacketFifo in the thread's PacketStore. The uplink runs the
// transmit loop, pulling from the queue as the host's PacketSource.
//
// send() is where a packet takes its store node, and receive() is where a
// delivered packet gives it back, once the demux has returned.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_store.hpp"
#include "sim/simulator.hpp"

namespace pmsb::net {

class Host;

/// Hands the packets arriving at its hosts to the endpoints of their flows.
/// experiments::Fabric's flow table and transport::DcqcnFlowTable are the
/// two: each finds a packet's flow by its id.
class FlowDemux {
 public:
  virtual ~FlowDemux() = default;
  /// Consumes `pkt`, which arrived at `host` and is valid only for the call.
  /// Returns false when no flow of this demux takes it.
  virtual bool deliver(Host& host, const Packet& pkt) = 0;
};

class Host : public Node, private PacketSource {
 public:
  Host(sim::Simulator& simulator, HostId id, std::string name)
      : Node(std::move(name)), sim_(simulator), id_(id) {}

  /// Connects the host's single uplink (host -> ToR direction) and makes the
  /// NIC queue its packet source.
  void attach_uplink(Link* link) {
    uplink_ = link;
    uplink_->attach_source(this);
  }

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] Link* uplink() const { return uplink_; }

  /// Queues a packet on the NIC for transmission, stamping `sent_time`, and
  /// kicks the uplink. The packet takes its store node here.
  void send(const Packet& pkt);

  /// Where arriving packets go (nullptr: they are counted in
  /// dropped_no_handler()). `demux` must outlive the host's last delivery.
  void set_demux(FlowDemux* demux) { demux_ = demux; }

  /// Called by the attached link when a packet arrives from the network:
  /// delivered if the demux takes it, else counted in dropped_no_handler().
  /// The node goes back to the store when the demux returns.
  void receive(PacketNodePtr node) override;

  [[nodiscard]] std::size_t nic_backlog_packets() const { return nic_queue_.size(); }
  [[nodiscard]] std::uint64_t nic_backlog_bytes() const { return nic_bytes_; }
  /// Packets handed to send() — where a packet enters the network for the
  /// purposes of conservation invariants.
  [[nodiscard]] std::uint64_t sent_packets() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_no_handler() const { return no_handler_; }

 private:
  PacketNodePtr pull() override;
  [[nodiscard]] bool has_packet() const override { return !nic_queue_.empty(); }

  sim::Simulator& sim_;
  HostId id_;
  Link* uplink_ = nullptr;
  PacketFifo nic_queue_;
  std::uint64_t nic_bytes_ = 0;
  FlowDemux* demux_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t no_handler_ = 0;
};

}  // namespace pmsb::net
