// Packet model.
//
// One struct covers data segments and ACKs. Packets are small and trivially
// copyable: devices copy them, and every queue and wire stores them in
// pooled nodes (net/packet_store.hpp), so the hot path allocates nothing
// per packet.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace pmsb::net {

using HostId = std::uint16_t;
using FlowId = std::uint32_t;
using ServiceId = std::uint8_t;
using TimeNs = sim::TimeNs;

enum class PacketType : std::uint8_t {
  kData,  ///< TCP data segment
  kAck,   ///< pure acknowledgment
  kCnp,   ///< Congestion Notification Packet (DCQCN)
};

/// A single packet in flight. `size_bytes` is the on-the-wire size
/// (payload + 40B header for data, header only for ACKs).
struct Packet {
  std::uint64_t id = 0;          ///< globally unique per simulation run
  FlowId flow_id = 0;
  HostId src = 0;
  HostId dst = 0;
  ServiceId service = 0;         ///< DSCP-like tag; switches map it to a queue
  PacketType type = PacketType::kData;
  std::uint32_t size_bytes = sim::kDefaultMtuBytes;

  std::uint64_t seq = 0;         ///< first payload byte (data packets)
  std::uint64_t ack = 0;         ///< cumulative ACK (ACK packets)
  bool fin = false;              ///< last segment of the flow

  // --- ECN state (RFC 3168 semantics, simplified to per-packet echo) ---
  bool ect = true;               ///< sender is ECN-capable
  bool ce = false;               ///< Congestion Experienced, set by switches
  bool ece = false;              ///< ACK echoes the data packet's CE bit

  // --- Timestamps ---
  TimeNs sent_time = 0;          ///< stamped by the sender when transmitted
  TimeNs echo_time = 0;          ///< ACK echoes the data packet's sent_time
  TimeNs enqueue_time = 0;       ///< stamped at switch enqueue (TCN sojourn)

  [[nodiscard]] bool is_data() const { return type == PacketType::kData; }
  [[nodiscard]] bool is_ack() const { return type == PacketType::kAck; }

  /// Payload bytes carried (0 for ACKs).
  [[nodiscard]] std::uint32_t payload_bytes() const {
    return is_data() && size_bytes > sim::kHeaderBytes ? size_bytes - sim::kHeaderBytes
                                                       : 0;
  }
};

/// Wire size of a pure ACK.
inline constexpr std::uint32_t kAckBytes = sim::kHeaderBytes;

}  // namespace pmsb::net
