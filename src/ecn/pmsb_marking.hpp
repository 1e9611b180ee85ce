// PMSB switch-side marking (Algorithm 1 of the paper).
//
// Mark iff (1) port occupancy >= port threshold AND (2) the packet's queue
// occupancy >= its weight share of the port threshold (Eq. 6). The thin
// adapter delegates to the pure functions in core/pmsb_algorithm.hpp.
#pragma once

#include "core/pmsb_algorithm.hpp"
#include "ecn/marking.hpp"

namespace pmsb::ecn {

class PmsbMarking final : public MarkingScheme {
 public:
  /// `filter_scale` scales the per-queue filter threshold (1.0 = Eq. 6
  /// verbatim); exposed for the aggressiveness ablation of §III.
  explicit PmsbMarking(std::uint64_t port_threshold_bytes, double filter_scale = 1.0)
      : port_threshold_(port_threshold_bytes), filter_scale_(filter_scale) {}

  [[nodiscard]] bool should_mark(const PortSnapshot& snap, const Packet&, MarkPoint,
                                 TimeNs) override {
    ++evals_;
    const bool mark = core::pmsb_should_mark(snap.port_bytes, port_threshold_,
                                             snap.queue_bytes, snap.weight,
                                             snap.weight_sum, filter_scale_);
    if (snap.port_bytes >= port_threshold_) {
      ++port_over_threshold_;
      // Selective blindness in action: the port qualified but the per-queue
      // filter spared this packet (paper Algorithm 1 lines 5-9).
      if (!mark) ++suppressed_by_blindness_;
    }
    return mark;
  }

  [[nodiscard]] std::string name() const override { return "PMSB"; }

  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::LabelSetId labels) override {
    registry.bind_counter("ecn.threshold_evals", labels, &evals_, "evals");
    registry.bind_counter("ecn.port_over_threshold", labels, &port_over_threshold_,
                          "evals");
    registry.bind_counter("ecn.mark_suppressed_blindness", labels,
                          &suppressed_by_blindness_, "packets");
  }

  /// Evaluations where the port was over threshold but the queue filter
  /// spared the packet — the direct count of the paper's blindness.
  [[nodiscard]] std::uint64_t suppressed_by_blindness() const {
    return suppressed_by_blindness_;
  }

 private:
  std::uint64_t port_threshold_;
  double filter_scale_;
  std::uint64_t evals_ = 0;
  std::uint64_t port_over_threshold_ = 0;
  std::uint64_t suppressed_by_blindness_ = 0;
};

}  // namespace pmsb::ecn
