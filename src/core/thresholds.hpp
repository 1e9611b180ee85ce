// ECN threshold math from the paper (§IV Eq. 7-11, Thm. IV.1).
//
// All functions work in bytes and nanoseconds; helpers convert from the
// paper's packet-count units at the call site. Runs take the standard K
// (Eq. 1) and the PMSB port threshold from experiments/presets.hpp, and
// Eq. 2's split from ecn::PerQueueMarking::fractional_thresholds.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace pmsb::core {

/// gamma_i = w_i / sum_j w_j (the queue's guaranteed bandwidth share).
[[nodiscard]] constexpr double bandwidth_share(double weight, double weight_sum) {
  return weight / weight_sum;
}

/// Theorem IV.1: the per-queue marking threshold must exceed
/// gamma_i * C * RTT / 7 to avoid throughput loss. Returns that lower bound
/// in bytes (exclusive bound: k_i must be strictly greater).
[[nodiscard]] inline double theorem41_min_queue_threshold_bytes(sim::RateBps capacity,
                                                                sim::TimeNs rtt,
                                                                double weight,
                                                                double weight_sum) {
  const double cxrtt = static_cast<double>(sim::bdp_bytes(capacity, rtt));
  return bandwidth_share(weight, weight_sum) * cxrtt / 7.0;
}

// --- Steady-state analysis helpers (Eq. 7-11), used by unit tests and the
// --- threshold-bound ablation bench to check the derivation numerically.

/// Eq. 8: maximum length of queue i, Q_i^max = k_i + n_i (bytes; n_i flows
/// each overshoot by one segment of `mss` bytes).
[[nodiscard]] constexpr double q_max_bytes(double k_bytes, double n_flows, double mss) {
  return k_bytes + n_flows * mss;
}

/// Eq. 9: oscillation amplitude
/// A_i = 1/2 * sqrt(2 * n_i * (gamma_i * C * RTT + k_i)) in segments; here in
/// bytes with every term expressed in bytes (amplitude scales with sqrt(mss)).
[[nodiscard]] inline double oscillation_amplitude_bytes(double n_flows, double gamma,
                                                        double cxrtt_bytes,
                                                        double k_bytes, double mss) {
  // Work in segments as the paper does, then convert back to bytes.
  const double cxrtt_seg = cxrtt_bytes / mss;
  const double k_seg = k_bytes / mss;
  const double amp_seg = 0.5 * std::sqrt(2.0 * n_flows * (gamma * cxrtt_seg + k_seg));
  return amp_seg * mss;
}

/// Q_i^min = Q_i^max - A_i (bytes).
[[nodiscard]] inline double q_min_bytes(double k_bytes, double n_flows, double gamma,
                                        double cxrtt_bytes, double mss) {
  return q_max_bytes(k_bytes, n_flows, mss) -
         oscillation_amplitude_bytes(n_flows, gamma, cxrtt_bytes, k_bytes, mss);
}

/// Eq. 11: the flow count that minimises Q_i^min,
/// n_i = (gamma_i * C * RTT + k_i) / 8 (in segments).
[[nodiscard]] inline double worst_case_flow_count(double gamma, double cxrtt_bytes,
                                                  double k_bytes, double mss) {
  return (gamma * cxrtt_bytes / mss + k_bytes / mss) / 8.0;
}

/// Eq. 10: lower bound of Q_i^min over all n_i:
/// Q_i^- = 7/8 * k_i - gamma_i * C * RTT / 8 (bytes).
[[nodiscard]] constexpr double q_min_lower_bound_bytes(double k_bytes, double gamma,
                                                       double cxrtt_bytes) {
  return 7.0 / 8.0 * k_bytes - gamma * cxrtt_bytes / 8.0;
}

}  // namespace pmsb::core
