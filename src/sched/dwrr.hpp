// Deficit Weighted Round Robin.
//
// Classic DWRR (Shreedhar & Varghese): each visit to a backlogged queue adds
// quantum_i = weight_i * quantum_base to its deficit counter; the queue is
// served while its head fits in the deficit. A queue that empties forfeits
// its deficit. One full pass over the queues is a "round"; completion is
// reported to the round observer so MQ-ECN can estimate T_round.
//
// The cursor jumps from queue to backlogged queue through the base class's
// backlog bitmap rather than stepping over idle ones. The jump serves the
// same queues, leaves the same deficits and reports the same rounds as the
// step-by-step walk: an idle queue it skips already holds a zero deficit, a
// jump that passes queue 0 reports the round, and the positions it skips
// count toward the spin bound.
#pragma once

#include <cstdint>

#include "sched/scheduler.hpp"
#include "sim/units.hpp"

namespace pmsb::sched {

class DwrrScheduler final : public Scheduler {
 public:
  DwrrScheduler(std::size_t num_queues, std::vector<double> weights = {},
                std::uint32_t quantum_base = sim::kDefaultMtuBytes);

  [[nodiscard]] std::string name() const override { return "DWRR"; }
  [[nodiscard]] bool round_based() const override { return true; }

  /// quantum_i in bytes (needed by MQ-ECN's Eq. 3).
  [[nodiscard]] double quantum(std::size_t q) const {
    return weight(q) * quantum_base_;
  }

  [[nodiscard]] std::int64_t deficit(std::size_t q) const { return deficit_.at(q); }

 protected:
  std::size_t select_queue(TimeNs now) override;

 private:
  std::uint32_t quantum_base_;
  std::vector<std::int64_t> quantum_bytes_;  ///< llround(quantum(q))
  std::vector<std::int64_t> deficit_;
  std::size_t cursor_ = 0;
  bool quantum_added_this_visit_ = false;
};

}  // namespace pmsb::sched
