// TCN marking (Bai et al., CoNEXT 2016; paper §II.C Eq. 4).
//
// A packet is marked at DEQUEUE time if its sojourn time in the switch
// exceeds T_k = RTT * lambda. Duration-based by construction: congestion is
// only observed after a packet has experienced it, so TCN cannot deliver
// congestion information early (paper Fig. 5 / Table I).
#pragma once

#include "ecn/marking.hpp"
#include "ecn/sojourn_buckets.hpp"

namespace pmsb::ecn {

class TcnMarking final : public MarkingScheme {
 public:
  explicit TcnMarking(TimeNs sojourn_threshold) : threshold_(sojourn_threshold) {}

  [[nodiscard]] bool should_mark(const PortSnapshot&, const Packet& pkt, MarkPoint point,
                                 TimeNs now) override {
    if (point != MarkPoint::kDequeue) return false;  // sojourn unknown before dequeue
    ++evals_;
    const TimeNs sojourn = now - pkt.enqueue_time;
    if (sojourn_hist_ != nullptr) {
      sojourn_hist_->observe(sim::to_microseconds(sojourn));
    }
    return sojourn > threshold_;
  }

  [[nodiscard]] std::string name() const override { return "TCN"; }

  [[nodiscard]] bool early_notification() const override { return false; }

  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::LabelSetId labels) override {
    registry.bind_counter("ecn.threshold_evals", labels, &evals_, "evals");
    sojourn_hist_ =
        &registry.histogram("ecn.sojourn_us", sojourn_bucket_bounds_us(), labels, "us");
  }

  [[nodiscard]] TimeNs sojourn_threshold() const { return threshold_; }

 private:
  TimeNs threshold_;
  std::uint64_t evals_ = 0;
  telemetry::Histogram* sojourn_hist_ = nullptr;  ///< set when bound
};

}  // namespace pmsb::ecn
