// Scheduler factory: builds a scheduler from a declarative config so that
// experiment harnesses and benches can select disciplines by name.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"

namespace pmsb::sched {

enum class SchedulerKind { kFifo, kSp, kWrr, kDwrr, kWfq, kSpWfq };

struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kDwrr;
  std::size_t num_queues = 1;
  std::vector<double> weights;             ///< empty = all 1.0
  std::vector<std::size_t> priority_group; ///< SP+WFQ only; empty = all group 0
};

/// Parses "FIFO" / "SP" / "WRR" / "DWRR" / "WFQ" / "SP+WFQ" (case-insensitive).
SchedulerKind parse_scheduler_kind(const std::string& name);

/// Human-readable name for a kind.
std::string scheduler_kind_name(SchedulerKind kind);

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& config);

}  // namespace pmsb::sched
