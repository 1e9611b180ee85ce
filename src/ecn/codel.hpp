// CoDel (Nichols & Jacobson, 2012) in ECN-marking mode — an additional
// sojourn-time AQM baseline next to TCN.
//
// Where TCN marks every packet whose sojourn exceeds a fixed T_k, CoDel
// enters a marking phase only after sojourn has stayed above `target` for a
// full `interval`, then marks at an increasing rate (interval / sqrt(count))
// until sojourn drops back below target. State is kept per queue. Like TCN
// it is duration-based, so it only acts at dequeue and cannot deliver
// congestion information early (same Table-I row as TCN).
#pragma once

#include <cmath>
#include <vector>

#include "ecn/marking.hpp"
#include "ecn/sojourn_buckets.hpp"
#include "sim/units.hpp"

namespace pmsb::ecn {

struct CodelConfig {
  TimeNs target = sim::microseconds(20);    ///< acceptable standing sojourn
  TimeNs interval = sim::microseconds(200); ///< sliding window (~worst RTT)
  std::size_t num_queues = 1;
};

class CodelMarking final : public MarkingScheme {
 public:
  explicit CodelMarking(CodelConfig config)
      : cfg_(config), state_(config.num_queues) {}

  [[nodiscard]] bool should_mark(const PortSnapshot& snap, const Packet& pkt,
                                 MarkPoint point, TimeNs now) override {
    if (point != MarkPoint::kDequeue) return false;
    ++evals_;
    QueueState& st = state_.at(snap.queue % state_.size());
    const TimeNs sojourn = now - pkt.enqueue_time;
    if (sojourn_hist_ != nullptr) {
      sojourn_hist_->observe(sim::to_microseconds(sojourn));
    }
    if (sojourn < cfg_.target || snap.queue_bytes < sim::kDefaultMtuBytes) {
      // Below target: leave the marking phase.
      st.first_above = kNever;
      st.marking = false;
      return false;
    }
    if (st.first_above == kNever) {
      st.first_above = now + cfg_.interval;
      return false;
    }
    if (!st.marking) {
      if (now < st.first_above) return false;
      // Sojourn stayed above target for a whole interval: start marking.
      st.marking = true;
      // Resume from the previous rate if we were marking recently.
      st.count = (st.count > 2 && now - st.mark_next < 8 * cfg_.interval)
                     ? st.count - 2
                     : 1;
      st.mark_next = now + control_law(st.count);
      return true;
    }
    if (now >= st.mark_next) {
      ++st.count;
      st.mark_next += control_law(st.count);
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string name() const override { return "CoDel"; }
  [[nodiscard]] bool early_notification() const override { return false; }

  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::LabelSetId labels) override {
    registry.bind_counter("ecn.threshold_evals", labels, &evals_, "evals");
    sojourn_hist_ =
        &registry.histogram("ecn.sojourn_us", sojourn_bucket_bounds_us(), labels, "us");
  }

  [[nodiscard]] std::uint64_t mark_count(std::size_t queue) const {
    return state_.at(queue).count;
  }

 private:
  static constexpr TimeNs kNever = -1;

  [[nodiscard]] TimeNs control_law(std::uint64_t count) const {
    return static_cast<TimeNs>(static_cast<double>(cfg_.interval) /
                               std::sqrt(static_cast<double>(count)));
  }

  struct QueueState {
    TimeNs first_above = kNever;
    bool marking = false;
    std::uint64_t count = 0;
    TimeNs mark_next = 0;
  };

  CodelConfig cfg_;
  std::vector<QueueState> state_;
  std::uint64_t evals_ = 0;
  telemetry::Histogram* sojourn_hist_ = nullptr;  ///< set when bound
};

}  // namespace pmsb::ecn
