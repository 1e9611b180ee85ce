#include "sched/factory.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sched/dwrr.hpp"
#include "sched/fifo.hpp"
#include "sched/hierarchical.hpp"
#include "sched/sp.hpp"
#include "sched/wfq.hpp"
#include "sched/wrr.hpp"

namespace pmsb::sched {

SchedulerKind parse_scheduler_kind(const std::string& name) {
  std::string up(name.size(), '\0');
  std::transform(name.begin(), name.end(), up.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (up == "FIFO") return SchedulerKind::kFifo;
  if (up == "SP") return SchedulerKind::kSp;
  if (up == "WRR") return SchedulerKind::kWrr;
  if (up == "DWRR" || up == "DRR") return SchedulerKind::kDwrr;
  if (up == "WFQ") return SchedulerKind::kWfq;
  if (up == "SP+WFQ" || up == "SPWFQ") return SchedulerKind::kSpWfq;
  throw std::invalid_argument("unknown scheduler: " + name);
}

std::string scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "FIFO";
    case SchedulerKind::kSp: return "SP";
    case SchedulerKind::kWrr: return "WRR";
    case SchedulerKind::kDwrr: return "DWRR";
    case SchedulerKind::kWfq: return "WFQ";
    case SchedulerKind::kSpWfq: return "SP+WFQ";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& config) {
  switch (config.kind) {
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>(config.num_queues, config.weights);
    case SchedulerKind::kSp:
      return std::make_unique<SpScheduler>(config.num_queues, config.weights);
    case SchedulerKind::kWrr:
      return std::make_unique<WrrScheduler>(config.num_queues, config.weights);
    case SchedulerKind::kDwrr:
      return std::make_unique<DwrrScheduler>(config.num_queues, config.weights);
    case SchedulerKind::kWfq:
      return std::make_unique<WfqScheduler>(config.num_queues, config.weights);
    case SchedulerKind::kSpWfq: {
      auto group = config.priority_group;
      if (group.empty()) group.assign(config.num_queues, 0);
      return std::make_unique<SpWfqScheduler>(config.num_queues, std::move(group),
                                              config.weights);
    }
  }
  throw std::invalid_argument("make_scheduler: bad kind");
}

}  // namespace pmsb::sched
