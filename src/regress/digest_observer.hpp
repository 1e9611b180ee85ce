// The run digest as a packet observer: translates each packet-path hook
// into one RunDigest event, with the observer's site id as the digest
// entity. The (kind, a, b) words below are part of the digest definition —
// changing any of them moves every baseline.
#pragma once

#include <cstdint>

#include "net/packet_observer.hpp"
#include "regress/digest.hpp"

namespace pmsb::regress {

class DigestObserver final : public net::PacketObserver {
 public:
  explicit DigestObserver(RunDigest& digest) : digest_(digest) {}

  [[nodiscard]] RunDigest& digest() { return digest_; }

  // Ports: a = packet id, b = queue << 48 | port bytes.
  void on_enqueue(net::SiteId site, net::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t port_bytes) override {
    port_event(site, EventKind::kEnqueue, now, pkt, queue, port_bytes);
  }
  void on_dequeue(net::SiteId site, net::TimeNs now, const net::Packet& pkt,
                  std::size_t queue, std::uint64_t port_bytes) override {
    port_event(site, EventKind::kDequeue, now, pkt, queue, port_bytes);
  }
  void on_mark(net::SiteId site, net::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t port_bytes) override {
    port_event(site, EventKind::kMark, now, pkt, queue, port_bytes);
  }
  void on_drop(net::SiteId site, net::TimeNs now, const net::Packet& pkt,
               std::size_t queue, std::uint64_t port_bytes) override {
    port_event(site, EventKind::kDrop, now, pkt, queue, port_bytes);
  }

  // Links: kSend at transmit, a = packet id, b = size | ce << 32 | ect << 33.
  void on_link_tx(net::SiteId site, net::TimeNs now, const net::Packet& pkt,
                  net::TimeNs /*tx_done*/) override {
    digest_.event(site, EventKind::kSend, now, pkt.id,
                  pkt.size_bytes | (static_cast<std::uint64_t>(pkt.ce) << 32) |
                      (static_cast<std::uint64_t>(pkt.ect) << 33));
  }

  // Senders: kSend a = packet id, b = seq; kAck a = cumulative ack,
  // b = ece | mark accepted << 1.
  void on_send(net::SiteId site, net::TimeNs now, const net::Packet& pkt,
               bool /*retransmit*/) override {
    digest_.event(site, EventKind::kSend, now, pkt.id, pkt.seq);
  }
  void on_ack(net::SiteId site, net::TimeNs now, const net::Packet& ack,
              bool mark_accepted, net::TimeNs /*rtt_sample*/) override {
    digest_.event(site, EventKind::kAck, now, ack.ack,
                  (ack.ece ? 1u : 0u) | (mark_accepted ? 2u : 0u));
  }

 private:
  void port_event(net::SiteId site, EventKind kind, net::TimeNs now,
                  const net::Packet& pkt, std::size_t queue, std::uint64_t port_bytes) {
    digest_.event(site, kind, now, pkt.id,
                  (static_cast<std::uint64_t>(queue) << 48) | port_bytes);
  }

  RunDigest& digest_;
};

}  // namespace pmsb::regress
