// End host: a NIC with a FIFO egress queue plus a demultiplexer that hands
// arriving packets to the transport endpoint registered for their flow, or,
// for a flow with no registered handler, to the host's fallback demux (the
// flow table of the fabric that built the host).
//
// The NIC egress queue is effectively unbounded — end-host memory is not the
// bottleneck the paper studies — but its backlog is observable for tests.
// It is a PacketFifo in the thread's PacketStore. The uplink runs the
// transmit loop, pulling from the queue as the host's PacketSource.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_store.hpp"
#include "sim/simulator.hpp"

namespace pmsb::net {

class Host;

/// Takes the packets of flows that have no handler registered on the host
/// they reach. experiments::Fabric reaches all of its flows' endpoints this
/// way, through one table instead of a handler per flow and host.
class FlowDemux {
 public:
  virtual ~FlowDemux() = default;
  /// Consumes `pkt`, which arrived at `host` and is valid only for the call.
  /// Returns false when no flow of this demux takes it.
  virtual bool deliver(Host& host, const Packet& pkt) = 0;
};

class Host : public Node, private PacketSource {
 public:
  /// Consumes an arriving packet, valid only for the call (see Node).
  using PacketHandler = std::function<void(const Packet&)>;

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
  /// kicks the uplink.
  void send(Packet pkt);

  /// Registers the transport endpoint that consumes packets of `flow_id`
  /// arriving at this host. Overwrites any previous registration.
  void register_flow(FlowId flow_id, PacketHandler handler) {
    handlers_[flow_id] = std::move(handler);
  }

  void unregister_flow(FlowId flow_id) { handlers_.erase(flow_id); }

  /// Where packets of flows with no registered handler go (nullptr: they
  /// are counted in dropped_no_handler()). `demux` must outlive the host's
  /// last delivery.
  void set_fallback(FlowDemux* demux) { fallback_ = demux; }

  /// Called by the attached link when a packet arrives from the network.
  void receive(const Packet& pkt) override;

  [[nodiscard]] std::size_t nic_backlog_packets() const { return nic_queue_.size(); }
  [[nodiscard]] std::uint64_t nic_backlog_bytes() const { return nic_bytes_; }
  /// Packets handed to send() — where a packet enters the network for the
  /// purposes of conservation invariants.
  [[nodiscard]] std::uint64_t sent_packets() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_no_handler() const { return no_handler_; }

 private:
  Packet pull() override;
  [[nodiscard]] bool has_packet() const override { return !nic_queue_.empty(); }

  sim::Simulator& sim_;
  HostId id_;
  Link* uplink_ = nullptr;
  PacketFifo nic_queue_;
  std::uint64_t nic_bytes_ = 0;
  std::unordered_map<FlowId, PacketHandler> handlers_;
  FlowDemux* fallback_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t no_handler_ = 0;
};

}  // namespace pmsb::net
