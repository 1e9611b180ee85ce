// MQ-ECN marking (Bai et al., NSDI 2016; paper §II.C Eq. 3).
//
// Each queue's threshold adapts to its current drain rate:
//     K_i = min(quantum_i / T_round, C) * RTT
// (lambda = 1), where T_round, the time one scheduling round takes, is
// estimated as an EWMA (beta = 0.75, paper §VI) of round-completion samples
// reported by the (round-based) scheduler.
// After the port has been idle longer than T_idle the estimate resets, which
// restores the standard threshold so a fresh flow ramps at full speed.
//
// MQ-ECN only works where "round" is defined, i.e. WRR/DWRR — the reason the
// paper excludes it from the WFQ evaluation (Table I, §VI.B).
#pragma once

#include <algorithm>
#include <vector>

#include "ecn/marking.hpp"
#include "sim/units.hpp"

namespace pmsb::ecn {

struct MqEcnConfig {
  std::vector<double> quantum_bytes;  ///< per-queue quantum (w_i * quantum base)
  sim::RateBps capacity = sim::gbps(10);
  TimeNs rtt = sim::microseconds(100);
  TimeNs t_idle = sim::microseconds_f(1.2);  ///< idle reset; paper: one MTU time
};

class MqEcnMarking final : public MarkingScheme {
 public:
  explicit MqEcnMarking(MqEcnConfig config) : cfg_(std::move(config)) {
    if (cfg_.quantum_bytes.empty()) {
      throw std::invalid_argument("MqEcnMarking: quantum_bytes must not be empty");
    }
  }

  [[nodiscard]] bool should_mark(const PortSnapshot& snap, const Packet&, MarkPoint,
                                 TimeNs now) override {
    last_activity_ = now;
    return static_cast<double>(snap.queue_bytes) >= threshold_bytes(snap.queue);
  }

  [[nodiscard]] std::string name() const override { return "MQ-ECN"; }

  [[nodiscard]] bool supports_generic() const override { return false; }

  void on_round_complete(TimeNs now) override {
    if (round_start_valid_) {
      const TimeNs sample = now - round_start_;
      t_round_ = kBeta * t_round_ + (1.0 - kBeta) * static_cast<double>(sample);
    }
    round_start_ = now;
    round_start_valid_ = true;
    last_activity_ = now;
  }

  void on_port_activity(TimeNs now, bool port_was_empty) override {
    if (port_was_empty && now - last_activity_ > cfg_.t_idle) {
      // Long idle: forget the round estimate so K_i snaps back to standard.
      t_round_ = 0.0;
      round_start_valid_ = false;
    }
    last_activity_ = now;
  }

  /// Eq. 3, in bytes. With no round estimate the standard threshold applies.
  [[nodiscard]] double threshold_bytes(std::size_t queue) const {
    const double c_bytes_per_ns = static_cast<double>(cfg_.capacity) / 8.0 * 1e-9;
    const double k_standard = c_bytes_per_ns * static_cast<double>(cfg_.rtt);
    if (t_round_ <= 0.0) return k_standard;
    const double drain_bytes_per_ns =
        std::min(cfg_.quantum_bytes.at(queue) / t_round_, c_bytes_per_ns);
    return drain_bytes_per_ns * static_cast<double>(cfg_.rtt);
  }

  [[nodiscard]] double t_round_estimate() const { return t_round_; }

 private:
  static constexpr double kBeta = 0.75;  ///< EWMA smoothing of T_round

  MqEcnConfig cfg_;
  double t_round_ = 0.0;  // EWMA of round duration, in ns
  TimeNs round_start_ = 0;
  bool round_start_valid_ = false;
  TimeNs last_activity_ = 0;
};

}  // namespace pmsb::ecn
