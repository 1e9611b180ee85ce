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
  // packet's worth of deficit; bound the spin generously. Every queue
  // position the cursor passes counts as a visit, skipped ones included.
  const std::size_t max_visits = 64 * num_queues() + 64;
  bool round_reported = false;
  std::size_t visits = 0;
  while (true) {
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
    // Jump to the next backlogged queue. The idle queues in between already
    // hold a zero deficit: the cursor left each of them either idle, after
    // zeroing it, or backlogged, and only service at the cursor drains one.
    const std::size_t next = next_backlogged(q);
    cursor_ = next;
    // A round in MQ-ECN's sense (Eq. 3) is the interval between consecutive
    // scheduling opportunities of a queue — it is observable only through
    // packet service. Extra cursor wraps inside one selection are deficit
    // accumulation for the SAME opportunity at the same instant; reporting
    // each wrap would feed zero-length T_round samples to the observer and
    // inflate every MQ-ECN threshold to the standard (non-adaptive) value.
    // The jump passes queue 0 when it wraps.
    if (next <= q && !round_reported) {
      notify_round_complete(now);
      round_reported = true;
    }
    visits += next > q ? next - q : next + num_queues() - q;
    if (visits >= max_visits) {
      throw std::logic_error("DwrrScheduler: no eligible queue after bounded spin");
    }
  }
}

}  // namespace pmsb::sched
