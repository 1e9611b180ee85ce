// The one observation seam on the packet path.
//
// Switch ports, links and transport senders report their per-packet events
// (port enqueue/dequeue/mark/drop, link tx/rx, transport send/ack) to a
// PacketObserver. The run digest, the span tracer, the port event tracer and
// RTT recorders are all plain observers; none of them is known to the
// components that emit the events, so net/, switchlib/ and transport/ do not
// depend on regress/ or trace/.
//
// Every emitting component holds one TapList: {observer, site} pairs, where
// the site is the observer's own handle for that component (a digest
// entity, a span node, ...), chosen by whoever attaches the observer. With
// no observer attached an event costs one empty-list check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace pmsb::net {

/// Per-observer handle for the component reporting an event.
using SiteId = std::uint32_t;

/// Receives packet events. Every hook defaults to a no-op, so an observer
/// overrides only what it records. Hooks must not alter the simulation.
/// Components hold observers by address, so observers are not copyable.
class PacketObserver {
 public:
  PacketObserver() = default;
  virtual ~PacketObserver() = default;
  PacketObserver(const PacketObserver&) = delete;
  PacketObserver& operator=(const PacketObserver&) = delete;

  // --- Switch port. `queue` is the service queue; `port_bytes` is the
  // port's buffered bytes at the event (an arriving packet is not yet
  // counted on enqueue/mark, a departing one no longer is on dequeue).
  virtual void on_enqueue(SiteId /*site*/, TimeNs /*now*/, const Packet& /*pkt*/,
                          std::size_t /*queue*/, std::uint64_t /*port_bytes*/) {}
  virtual void on_dequeue(SiteId /*site*/, TimeNs /*now*/, const Packet& /*pkt*/,
                          std::size_t /*queue*/, std::uint64_t /*port_bytes*/) {}
  virtual void on_mark(SiteId /*site*/, TimeNs /*now*/, const Packet& /*pkt*/,
                       std::size_t /*queue*/, std::uint64_t /*port_bytes*/) {}
  virtual void on_drop(SiteId /*site*/, TimeNs /*now*/, const Packet& /*pkt*/,
                       std::size_t /*queue*/, std::uint64_t /*port_bytes*/) {}

  // --- Link. on_link_tx fires when serialization starts (`now`) and will
  // finish at `tx_done`; on_link_rx fires at delivery (`rx_time`).
  virtual void on_link_tx(SiteId /*site*/, TimeNs /*now*/, const Packet& /*pkt*/,
                          TimeNs /*tx_done*/) {}
  virtual void on_link_rx(SiteId /*site*/, TimeNs /*rx_time*/, const Packet& /*pkt*/,
                          TimeNs /*tx_done*/) {}

  // --- Transport sender. on_send fires per segment handed to the host;
  // on_ack per processed ACK, with whether its ECE mark was accepted (after
  // the PMSB(e) rule) and the RTT sample the ACK produced.
  virtual void on_send(SiteId /*site*/, TimeNs /*now*/, const Packet& /*pkt*/,
                       bool /*retransmit*/) {}
  virtual void on_ack(SiteId /*site*/, TimeNs /*now*/, const Packet& /*ack*/,
                      bool /*mark_accepted*/, TimeNs /*rtt_sample*/) {}
};

/// The observers attached to one component, in attach order.
class TapList {
 public:
  struct Tap {
    PacketObserver* observer;
    SiteId site;
  };

  /// `observer` must outlive the component.
  void add(PacketObserver* observer, SiteId site) { taps_.push_back({observer, site}); }

  /// Calls `hook` on every observer with its own site followed by `args`.
  template <typename Hook, typename... Args>
  void notify(Hook hook, const Args&... args) const {
    for (const Tap& tap : taps_) (tap.observer->*hook)(tap.site, args...);
  }

  [[nodiscard]] bool empty() const { return taps_.empty(); }

 private:
  std::vector<Tap> taps_;
};

}  // namespace pmsb::net
