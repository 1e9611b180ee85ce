#include "faults/invariants.hpp"

#include <sstream>
#include <utility>

namespace pmsb::faults {

std::string Violation::to_string() const {
  std::ostringstream out;
  out << "[invariant " << check << "] entity=" << entity << " t=" << time
      << "ns: " << detail;
  return out.str();
}

void InvariantChecker::Context::violate(const std::string& entity,
                                        const std::string& detail) {
  Violation v;
  v.check = check_;
  v.entity = entity;
  v.time = owner_.sim_.now();
  v.detail = detail;
  owner_.record(std::move(v));
}

void InvariantChecker::record(Violation v) {
  ++total_violations_;
  if (violations_.size() < kMaxRecorded) violations_.push_back(std::move(v));
}

void InvariantChecker::check_now() {
  walk();
  // A caller may change state after this walk inside the same event, so
  // the next tick walks again.
  may_skip_ = false;
}

void InvariantChecker::walk() {
  ++evaluations_;
  const std::uint64_t violations_before = total_violations_;
  for (auto& check : checks_) {
    Context ctx(*this, check.name);
    check.fn(ctx);
  }
  events_at_eval_ = sim_.executed_events();
  packet_ids_at_eval_ = sim_.packet_ids_allocated();
  may_skip_ = total_violations_ == violations_before;
}

void InvariantChecker::tick() {
  // Checks read only state that events change. If no event but this tick
  // has run and no packet id was handed out since a walk that found
  // nothing, a walk now would find nothing too: count it without walking.
  if (may_skip_ && sim_.executed_events() == events_at_eval_ + 1 &&
      sim_.packet_ids_allocated() == packet_ids_at_eval_) {
    ++evaluations_;
    events_at_eval_ = sim_.executed_events();
  } else {
    walk();
  }
}

std::string InvariantChecker::summary(std::size_t max_lines) const {
  std::ostringstream out;
  out << total_violations_ << " invariant violation(s)";
  const std::size_t shown =
      violations_.size() < max_lines ? violations_.size() : max_lines;
  for (std::size_t i = 0; i < shown; ++i) {
    out << "\n  " << violations_[i].to_string();
  }
  if (total_violations_ > shown) {
    out << "\n  ... and " << (total_violations_ - shown) << " more";
  }
  return out.str();
}

void InvariantChecker::bind_metrics(telemetry::MetricsRegistry& registry) {
  registry.counter_fn("invariants.evaluations", {},
                      [this] { return evaluations_; }, "checks");
  registry.counter_fn("invariants.violations", {},
                      [this] { return total_violations_; }, "violations");
}

}  // namespace pmsb::faults
