// Scheme presets: one place that turns "(scheme, capacity, RTT)" into
// concrete marking + transport parameters, following §VI of the paper, with
// lambda = 1 throughout:
//
//  - per-queue standard / per-port / MQ-ECN:  K = C * RTT            (Eq. 1)
//  - TCN:                      T_k = RTT = K / C                     (Eq. 4)
//  - PMSB / PMSB(e): port threshold from Theorem IV.1 — the sum of the
//    per-queue lower bounds, C * RTT / 7, rounded up to whole packets plus
//    one (reproduces the paper's "12 packets" for their C*RTT of ~71 pkts)
//  - PMSB(e) RTT threshold: base RTT plus the time the port threshold takes
//    to drain at line rate (reproduces the paper's 85.2 us = ~70.8 + 14.4)
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecn/factory.hpp"
#include "sim/units.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::experiments {

enum class Scheme {
  kNone,
  kPerQueueStd,
  kPerQueueFrac,
  kPerPort,
  kMqEcn,
  kTcn,
  kPmsb,
  kPmsbE,
};

[[nodiscard]] inline std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNone: return "None";
    case Scheme::kPerQueueStd: return "PerQueue-Std";
    case Scheme::kPerQueueFrac: return "PerQueue-Frac";
    case Scheme::kPerPort: return "PerPort";
    case Scheme::kMqEcn: return "MQ-ECN";
    case Scheme::kTcn: return "TCN";
    case Scheme::kPmsb: return "PMSB";
    case Scheme::kPmsbE: return "PMSB(e)";
  }
  return "?";
}

/// Parses a scheme as the CLI spells it; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] inline Scheme parse_scheme(const std::string& s) {
  if (s == "pmsb") return Scheme::kPmsb;
  if (s == "pmsbe" || s == "pmsb(e)") return Scheme::kPmsbE;
  if (s == "mq-ecn" || s == "mqecn") return Scheme::kMqEcn;
  if (s == "tcn") return Scheme::kTcn;
  if (s == "perport") return Scheme::kPerPort;
  if (s == "perqueue-std" || s == "perqueue") return Scheme::kPerQueueStd;
  if (s == "perqueue-frac") return Scheme::kPerQueueFrac;
  if (s == "none") return Scheme::kNone;
  throw std::invalid_argument("unknown scheme: " + s);
}

struct SchemeParams {
  sim::RateBps capacity = sim::gbps(10);
  sim::TimeNs rtt = sim::microseconds(80);  ///< RTT used in threshold formulas
  std::vector<double> weights = {1.0};      ///< bottleneck queue weights
  ecn::MarkPoint point = ecn::MarkPoint::kEnqueue;
};

/// K = C * RTT in bytes.
[[nodiscard]] inline std::uint64_t standard_k_bytes(const SchemeParams& p) {
  return sim::bdp_bytes(p.capacity, p.rtt);
}

/// PMSB port threshold: ceil(C*RTT/7 in packets) + 1, in bytes.
[[nodiscard]] inline std::uint64_t pmsb_port_threshold_bytes(const SchemeParams& p) {
  const double bound_pkts = static_cast<double>(sim::bdp_bytes(p.capacity, p.rtt)) /
                            7.0 / sim::kDefaultMtuBytes;
  return (static_cast<std::uint64_t>(std::ceil(bound_pkts)) + 1) * sim::kDefaultMtuBytes;
}

/// PMSB(e) RTT threshold: base RTT + port-threshold drain time.
[[nodiscard]] inline sim::TimeNs pmsbe_rtt_threshold(const SchemeParams& p,
                                                     sim::TimeNs base_rtt) {
  return base_rtt + sim::serialization_delay(pmsb_port_threshold_bytes(p), p.capacity);
}

[[nodiscard]] inline ecn::MarkingConfig make_scheme_marking(Scheme s,
                                                            const SchemeParams& p) {
  ecn::MarkingConfig m;
  m.point = p.point;
  m.weights = p.weights;
  m.capacity = p.capacity;
  m.rtt = p.rtt;
  switch (s) {
    case Scheme::kNone:
      m.kind = ecn::MarkingKind::kNone;
      break;
    case Scheme::kPerQueueStd:
      m.kind = ecn::MarkingKind::kPerQueueStandard;
      m.threshold_bytes = standard_k_bytes(p);
      break;
    case Scheme::kPerQueueFrac:
      m.kind = ecn::MarkingKind::kPerQueueFractional;
      m.threshold_bytes = standard_k_bytes(p);
      break;
    case Scheme::kPerPort:
      m.kind = ecn::MarkingKind::kPerPort;
      m.threshold_bytes = standard_k_bytes(p);
      break;
    case Scheme::kMqEcn:
      m.kind = ecn::MarkingKind::kMqEcn;
      m.threshold_bytes = standard_k_bytes(p);
      break;
    case Scheme::kTcn:
      m.kind = ecn::MarkingKind::kTcn;
      m.sojourn_threshold = p.rtt;
      break;
    case Scheme::kPmsb:
      m.kind = ecn::MarkingKind::kPmsb;
      m.threshold_bytes = pmsb_port_threshold_bytes(p);
      break;
    case Scheme::kPmsbE:
      // Switch side of PMSB(e) is plain per-port marking with the same
      // (small) port threshold; the blindness runs at the sender.
      m.kind = ecn::MarkingKind::kPerPort;
      m.threshold_bytes = pmsb_port_threshold_bytes(p);
      break;
  }
  return m;
}

/// Applies scheme-specific sender settings (PMSB(e)'s Algorithm 2 knobs).
inline void apply_scheme_transport(Scheme s, const SchemeParams& p,
                                   sim::TimeNs base_rtt,
                                   transport::DctcpConfig& transport) {
  if (s == Scheme::kPmsbE) {
    transport.pmsbe_enabled = true;
    transport.pmsbe_rtt_threshold = pmsbe_rtt_threshold(p, base_rtt);
  } else {
    transport.pmsbe_enabled = false;
  }
}

}  // namespace pmsb::experiments
