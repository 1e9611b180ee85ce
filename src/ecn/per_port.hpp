// Per-port ECN marking (§II.B): one threshold over the whole port buffer.
//
// Achieves both high throughput and low latency, but violates weighted fair
// sharing — packets of an un-congested queue get marked because of other
// queues' occupancy (paper Fig. 3). This is also the switch-side behaviour
// PMSB(e) runs against: the selective blindness then happens at end hosts.
#pragma once

#include "ecn/marking.hpp"

namespace pmsb::ecn {

class PerPortMarking final : public MarkingScheme {
 public:
  explicit PerPortMarking(std::uint64_t port_threshold_bytes)
      : threshold_(port_threshold_bytes) {}

  [[nodiscard]] bool should_mark(const PortSnapshot& snap, const Packet&, MarkPoint,
                                 TimeNs) override {
    ++evals_;
    return snap.port_bytes >= threshold_;
  }

  [[nodiscard]] std::string name() const override { return "PerPort"; }

  /// Plain per-port marking is what commodity chips already do.
  [[nodiscard]] bool requires_switch_modification() const override { return false; }

  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::LabelSetId labels) override {
    registry.bind_counter("ecn.threshold_evals", labels, &evals_, "evals");
  }

  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }

 private:
  std::uint64_t threshold_;
  std::uint64_t evals_ = 0;
};

/// Marking disabled (plain drop-tail port).
class NoMarking final : public MarkingScheme {
 public:
  [[nodiscard]] bool should_mark(const PortSnapshot&, const Packet&, MarkPoint,
                                 TimeNs) override {
    return false;
  }
  [[nodiscard]] std::string name() const override { return "None"; }
  [[nodiscard]] bool requires_switch_modification() const override { return false; }
};

}  // namespace pmsb::ecn
