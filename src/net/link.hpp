// Unidirectional point-to-point link.
//
// The link models serialization (rate) and propagation (delay) and runs the
// transmit loop of the device that feeds it. A device (a switch Port or a
// Host NIC) attaches as the link's PacketSource and kicks the link after
// every enqueue; the link pulls one packet at a time, serializes it, and
// pulls the next when serialization completes. Store-and-forward: the
// destination sees the packet only after the last bit has been serialized
// and propagated.
//
// Kernel cost per packet hop is one delivery event, plus one transmit-done
// wake-up only when a packet is waiting for it. Both are sim::Timers the
// link owns, not pool closures: arming one queues a 16-byte entry and
// dispatch calls the link back directly.
//  - At transmit the link reserves the wake-up's insertion sequence number
//    (Simulator::reserve_seq) and arms the wake-up only if the source still
//    has a packet. A kick that arrives while the reserved position is still
//    ahead of dispatch (Simulator::current_before) arms it then; a later
//    kick finds the link idle and transmits at once — the state an eagerly
//    queued wake-up that found nothing to send would have left. Dispatch
//    order is therefore exactly that of a loop that always queued the
//    wake-up.
//  - A link is FIFO (tx_done only grows, the delay is fixed), so in-flight
//    packets wait in the link's own PacketFifo and only the head's delivery
//    is armed. Each delivery's (arrival, seq) is reserved at transmit and
//    written into the node ahead of it on the wire (the tail, whose line
//    the FIFO link touches anyway), or armed at once when the wire was
//    empty; delivering a packet arms the next delivery from the node just
//    unlinked, so it never loads the next node.
//  - The packet's node travels: the source's pull() hands it over, the wire
//    splices it into its FIFO, and delivery hands it to the receiver. A hop
//    copies no packet and takes no node (net/packet_store.hpp).
//  - A link destroyed with packets in flight or a wake-up armed leaves only
//    tombstones in the event queue, and its nodes go back to the store.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "net/packet_store.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace pmsb::net {

/// The device whose egress queue feeds a link's transmit loop.
class PacketSource {
 public:
  /// Removes the next packet to send and hands over its node. Called only
  /// when has_packet() is true.
  virtual PacketNodePtr pull() = 0;
  [[nodiscard]] virtual bool has_packet() const = 0;

 protected:
  ~PacketSource() = default;
};

class Link {
 public:
  Link(sim::Simulator& simulator, sim::RateBps rate, TimeNs propagation_delay,
       Node* destination)
      : sim_(simulator),
        rate_(rate),
        delay_(propagation_delay),
        dst_(destination),
        wake_(simulator, &Link::on_wake, this),
        delivery_(simulator, &Link::on_delivery, this) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Makes `source` the device this link pulls packets from.
  void attach_source(PacketSource* source) { source_ = source; }

  /// Tells the link its source has a packet waiting: it transmits at once if
  /// idle, and otherwise makes sure the transmit-done wake-up will pull it.
  /// Devices call this after every enqueue.
  void kick();

  /// Starts serializing the packet in `node` now, taking the node over.
  /// Precondition: !busy(). Returns the time at which serialization
  /// completes. The transmit loop calls this; so can a test driving a link
  /// that has no source.
  TimeNs transmit(PacketNodePtr node);

  /// Re-points the link at a different receiving node. The fault plane uses
  /// this to interpose an owned FaultInjector between the wire and the real
  /// device. Packets already in flight are delivered to the NEW destination
  /// (delivery resolves dst_ at arrival time).
  void set_destination(Node* destination) { dst_ = destination; }

  /// Reports on_link_tx per transmitted packet and on_link_rx per delivery
  /// to `observer` as `site`.
  void add_observer(PacketObserver* observer, SiteId site = 0) {
    taps_.add(observer, site);
  }

  [[nodiscard]] bool busy() const { return sim_.now() < busy_until_; }
  [[nodiscard]] sim::RateBps rate() const { return rate_; }
  [[nodiscard]] TimeNs propagation_delay() const { return delay_; }
  [[nodiscard]] Node* destination() const { return dst_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return packets_delivered_; }
  /// Packets serialized or serializing but not yet handed to the
  /// destination — the link's contribution to conservation invariants.
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return packets_sent_ - packets_delivered_;
  }

 private:
  static void on_wake(void* link) { static_cast<Link*>(link)->send_next(); }
  static void on_delivery(void* link) { static_cast<Link*>(link)->deliver_head(); }
  void send_next();
  void deliver_head();

  sim::Simulator& sim_;
  sim::RateBps rate_;
  TimeNs delay_;
  Node* dst_;
  PacketSource* source_ = nullptr;
  TapList taps_;
  TimeNs busy_until_ = 0;
  /// Reserved seq of the last transmit's wake-up, due at busy_until_. The
  /// initial (0, 0) is never ahead of dispatch, so a new link is idle.
  std::uint64_t wake_seq_ = 0;
  sim::Timer wake_;      ///< armed only while a packet waits for busy_until_
  sim::Timer delivery_;  ///< armed at the head's (arrival, seq) while in flight
  /// Packets on the wire; each node but the tail holds its successor's
  /// (arrival, seq).
  PacketFifo in_flight_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace pmsb::net
