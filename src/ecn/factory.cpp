#include "ecn/factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "ecn/codel.hpp"
#include "ecn/mq_ecn.hpp"
#include "ecn/per_pool.hpp"
#include "ecn/per_port.hpp"
#include "ecn/per_queue.hpp"
#include "ecn/pmsb_marking.hpp"
#include "ecn/tcn.hpp"

namespace pmsb::ecn {

MarkPoint effective_mark_point(const MarkingConfig& config) {
  // Duration-based schemes can only judge a packet once its sojourn is
  // known, i.e. at dequeue.
  if (config.kind == MarkingKind::kTcn || config.kind == MarkingKind::kCodel) {
    return MarkPoint::kDequeue;
  }
  return config.point;
}

std::unique_ptr<MarkingScheme> make_marking(const MarkingConfig& config) {
  switch (config.kind) {
    case MarkingKind::kNone:
      return std::make_unique<NoMarking>();
    case MarkingKind::kPerQueueStandard: {
      const std::size_t n = std::max<std::size_t>(1, config.weights.size());
      return std::make_unique<PerQueueMarking>(
          PerQueueMarking::standard_thresholds(n, config.threshold_bytes));
    }
    case MarkingKind::kPerQueueFractional: {
      if (config.weights.empty()) {
        throw std::invalid_argument("PerQueue-Frac needs queue weights");
      }
      return std::make_unique<PerQueueMarking>(
          PerQueueMarking::fractional_thresholds(config.weights, config.threshold_bytes));
    }
    case MarkingKind::kPerPort:
      return std::make_unique<PerPortMarking>(config.threshold_bytes);
    case MarkingKind::kMqEcn: {
      if (config.weights.empty()) {
        throw std::invalid_argument("MQ-ECN needs queue weights");
      }
      MqEcnConfig mc;
      mc.quantum_bytes.reserve(config.weights.size());
      for (double w : config.weights) mc.quantum_bytes.push_back(w * config.quantum_base);
      mc.capacity = config.capacity;
      mc.rtt = config.rtt;
      mc.lambda = config.lambda;
      mc.beta = config.beta;
      mc.t_idle = sim::serialization_delay(config.quantum_base, config.capacity);
      return std::make_unique<MqEcnMarking>(std::move(mc));
    }
    case MarkingKind::kTcn:
      return std::make_unique<TcnMarking>(config.sojourn_threshold);
    case MarkingKind::kPmsb:
      return std::make_unique<PmsbMarking>(config.threshold_bytes, config.filter_scale);
    case MarkingKind::kPerPool:
      return std::make_unique<PerPoolMarking>(config.threshold_bytes);
    case MarkingKind::kCodel: {
      CodelConfig cc;
      cc.target = config.codel_target != 0 ? config.codel_target
                                           : config.sojourn_threshold / 4;
      cc.interval = config.codel_interval != 0 ? config.codel_interval
                                               : 10 * cc.target;
      cc.num_queues = std::max<std::size_t>(1, config.weights.size());
      return std::make_unique<CodelMarking>(cc);
    }
  }
  throw std::invalid_argument("make_marking: bad kind");
}

}  // namespace pmsb::ecn
