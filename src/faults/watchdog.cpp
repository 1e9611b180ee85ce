#include "faults/watchdog.hpp"

#include <sstream>
#include <utility>

#include "faults/invariants.hpp"

namespace pmsb::faults {

Watchdog::Watchdog(sim::Simulator& simulator, InvariantChecker* checker,
                   WatchdogConfig config, std::function<std::uint64_t()> progress,
                   std::function<bool()> done,
                   std::function<std::string()> forensics)
    : sim_(simulator), checker_(checker), config_(config),
      progress_(std::move(progress)), done_(std::move(done)),
      forensics_(std::move(forensics)), last_advance_(simulator.now()),
      start_wall_(std::chrono::steady_clock::now()),
      tick_(simulator, [](void* self) { static_cast<Watchdog*>(self)->tick(); }, this) {
  if (config_.stall_horizon > 0) {
    if (!progress_ || !done_) {
      throw std::invalid_argument("Watchdog: a stall horizon needs progress and done probes");
    }
    last_progress_ = progress_();
  }
  tick_.arm(sim_.now() + kTickPeriod, sim_.reserve_seq());
}

void Watchdog::tick() {
  if (checker_ != nullptr) checker_->tick();
  ++samples_;

  if (config_.max_events > 0 && sim_.executed_events() > config_.max_events) {
    std::ostringstream why;
    why << "event budget exceeded: executed=" << sim_.executed_events()
        << " budget=" << config_.max_events;
    trip(why.str());
  }

  if (config_.stall_horizon > 0) {
    const std::uint64_t now_progress = progress_();
    if (now_progress != last_progress_) {
      last_progress_ = now_progress;
      last_advance_ = sim_.now();
    } else if (!done_() && sim_.now() - last_advance_ >= config_.stall_horizon) {
      std::ostringstream why;
      why << "no progress for " << (sim_.now() - last_advance_)
          << "ns (horizon=" << config_.stall_horizon
          << "ns, progress=" << now_progress << ")";
      trip(why.str());
    }
  }

  if (config_.wall_budget_s > 0.0) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_wall_)
            .count();
    if (elapsed >= config_.wall_budget_s) {
      std::ostringstream why;
      // The limit, not the measured elapsed time, goes into what(): the
      // message lands in sweep-report `error` fields that should stay as
      // reproducible as a wall-clock failure can be. wall_ms in the record
      // carries the measurement.
      why << "[cell_timeout] wall-clock limit " << config_.wall_budget_s
          << "s exceeded (phase=run, sim_time=" << sim::to_microseconds(sim_.now())
          << "us, executed_events=" << sim_.executed_events() << ")";
      throw WallBudgetExceeded(why.str(), elapsed);
    }
  }

  // The guard only reads state, so once nothing else is pending the run is
  // done: stop ticking rather than keep the sim alive forever.
  if (sim_.pending_events() > 0) {
    tick_.arm(sim_.now() + kTickPeriod, sim_.reserve_seq());
  }
}

void Watchdog::trip(const std::string& reason) const {
  std::ostringstream out;
  out << "[watchdog] entity=simulation t=" << sim_.now() << "ns: " << reason
      << "; executed_events=" << sim_.executed_events()
      << " pending_events=" << sim_.pending_events()
      << " max_heap_depth=" << sim_.max_heap_depth();
  if (forensics_) {
    const std::string extra = forensics_();
    if (!extra.empty()) out << "\n" << extra;
  }
  throw std::runtime_error(out.str());
}

void Watchdog::bind_metrics(telemetry::MetricsRegistry& registry) {
  registry.counter_fn("watchdog.samples", {}, [this] { return samples_; },
                      "samples");
}

}  // namespace pmsb::faults
