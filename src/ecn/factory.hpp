// Marking scheme factory: builds a scheme plus its mark-point from a
// declarative config so benches can sweep schemes uniformly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ecn/marking.hpp"
#include "sim/units.hpp"

namespace pmsb::ecn {

enum class MarkingKind {
  kNone,
  kPerQueueStandard,
  kPerQueueFractional,
  kPerPort,
  kMqEcn,
  kTcn,
  kPmsb,
  kPerPool,
  kCodel,
};

struct MarkingConfig {
  MarkingKind kind = MarkingKind::kPmsb;
  MarkPoint point = MarkPoint::kEnqueue;  ///< TCN always marks at dequeue

  std::uint64_t threshold_bytes = 0;  ///< K / port threshold (scheme-dependent)
  std::vector<double> weights;        ///< queue weights (fractional, MQ-ECN, PMSB)

  // MQ-ECN specific
  sim::RateBps capacity = sim::gbps(10);
  sim::TimeNs rtt = sim::microseconds(100);
  double lambda = 1.0;
  double beta = 0.75;
  std::uint32_t quantum_base = sim::kDefaultMtuBytes;

  // TCN specific
  sim::TimeNs sojourn_threshold = 0;

  // PMSB specific
  double filter_scale = 1.0;

  // CoDel specific
  sim::TimeNs codel_target = 0;    ///< 0 = sojourn_threshold / 4
  sim::TimeNs codel_interval = 0;  ///< 0 = 10x target
};

std::unique_ptr<MarkingScheme> make_marking(const MarkingConfig& config);

/// The mark point a config effectively uses (TCN forces dequeue).
MarkPoint effective_mark_point(const MarkingConfig& config);

}  // namespace pmsb::ecn
