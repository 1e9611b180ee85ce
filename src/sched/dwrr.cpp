#include "sched/dwrr.hpp"

#include <cmath>
#include <stdexcept>

namespace pmsb::sched {

DwrrScheduler::DwrrScheduler(std::size_t num_queues, std::vector<double> weights,
                             std::uint32_t quantum_base)
    : Scheduler(num_queues, std::move(weights)),
      quantum_base_(quantum_base),
      deficit_(num_queues, 0) {
  if (quantum_base_ == 0) throw std::invalid_argument("DWRR: quantum_base must be > 0");
  quantum_bytes_.reserve(num_queues);
  for (std::size_t q = 0; q < num_queues; ++q) {
    quantum_bytes_.push_back(static_cast<std::int64_t>(std::llround(quantum(q))));
  }
}

std::size_t DwrrScheduler::select_queue(TimeNs now) {
  // With fractional weights a queue may need several rounds to accumulate a
  // packet's worth of deficit; bound the spin generously.
  const std::size_t max_visits = 64 * num_queues() + 64;
  bool round_reported = false;
  for (std::size_t visits = 0; visits < max_visits; ++visits) {
    const std::size_t q = cursor_;
    if (backlogged(q)) {
      if (!quantum_added_this_visit_) {
        deficit_[q] += quantum_bytes_[q];
        quantum_added_this_visit_ = true;
      }
      const auto size = static_cast<std::int64_t>(head(q).size_bytes);
      if (size <= deficit_[q]) {
        deficit_[q] -= size;
        return q;
      }
    } else {
      deficit_[q] = 0;  // forfeit on going idle
    }
    quantum_added_this_visit_ = false;
    if (++cursor_ == num_queues()) cursor_ = 0;
    // A round in MQ-ECN's sense (Eq. 3) is the interval between consecutive
    // scheduling opportunities of a queue — it is observable only through
    // packet service. Extra cursor wraps inside one selection are deficit
    // accumulation for the SAME opportunity at the same instant; reporting
    // each wrap would feed zero-length T_round samples to the observer and
    // inflate every MQ-ECN threshold to the standard (non-adaptive) value.
    if (cursor_ == 0 && !round_reported) {
      notify_round_complete(now);
      round_reported = true;
    }
  }
  throw std::logic_error("DwrrScheduler: no eligible queue after bounded spin");
}

}  // namespace pmsb::sched
