// Bandwidth / size unit helpers shared across the simulator.
//
// Rates are plain bits-per-second integers so that serialization delays can
// be computed exactly in integer nanoseconds. Helper factories make call
// sites read like the paper ("10 Gbps links", "16 packet threshold").
#pragma once

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace pmsb::sim {

/// Link / drain rate in bits per second.
using RateBps = std::uint64_t;

inline constexpr RateBps kbps(std::uint64_t v) { return v * 1'000ull; }
inline constexpr RateBps mbps(std::uint64_t v) { return v * 1'000'000ull; }
inline constexpr RateBps gbps(std::uint64_t v) { return v * 1'000'000'000ull; }

/// Ethernet MTU used throughout the paper's experiments (bytes, on the wire).
inline constexpr std::uint32_t kDefaultMtuBytes = 1500;

/// TCP/IP header overhead assumed per segment (bytes).
inline constexpr std::uint32_t kHeaderBytes = 40;

/// Maximum segment payload for a default-MTU packet.
inline constexpr std::uint32_t kDefaultMssBytes = kDefaultMtuBytes - kHeaderBytes;

/// Time to serialize `bytes` onto a link of rate `rate` (rounded up so a
/// packet never finishes "early"; rounding down could let two back-to-back
/// packets overlap by a nanosecond).
inline constexpr TimeNs serialization_delay(std::uint64_t bytes, RateBps rate) {
  const std::uint64_t bits = bytes * 8ull;
  // ns = bits / (rate / 1e9) = bits * 1e9 / rate, rounded up.
  return static_cast<TimeNs>((bits * 1'000'000'000ull + rate - 1) / rate);
}

/// The bandwidth-delay product C * RTT expressed in bytes.
inline constexpr std::uint64_t bdp_bytes(RateBps rate, TimeNs rtt) {
  return static_cast<std::uint64_t>(rtt) * rate / 8ull / 1'000'000'000ull;
}

/// Parses a human-readable duration into TimeNs: a (possibly fractional)
/// number followed by an optional unit suffix `ns`, `us`, `ms`, or `s`
/// (bare numbers are nanoseconds). Used by the fault-timeline grammar and
/// the experiment option parser. Throws std::invalid_argument on malformed
/// input ("", "10x", "ms").
inline TimeNs parse_duration_ns(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) {
    throw std::invalid_argument("parse_duration_ns: no number in '" + text + "'");
  }
  const std::string suffix(end);
  double scale = 1.0;
  if (suffix == "ns" || suffix.empty()) {
    scale = 1.0;
  } else if (suffix == "us") {
    scale = 1e3;
  } else if (suffix == "ms") {
    scale = 1e6;
  } else if (suffix == "s") {
    scale = 1e9;
  } else {
    throw std::invalid_argument("parse_duration_ns: bad unit '" + suffix + "' in '" +
                                text + "'");
  }
  return static_cast<TimeNs>(value * scale);
}

/// Converts a threshold given in packets (the paper's unit) to bytes.
inline constexpr std::uint64_t packets_to_bytes(double packets,
                                                std::uint32_t mtu = kDefaultMtuBytes) {
  return static_cast<std::uint64_t>(packets * mtu);
}

}  // namespace pmsb::sim
