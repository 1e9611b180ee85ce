#include "telemetry/profiler.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/run_report.hpp"

namespace pmsb::telemetry {

namespace {

[[nodiscard]] std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sim-time deltas between consecutive dispatches span same-timestamp ties
// (0 ns) up to second-scale timers; decade buckets cover that whole range.
[[nodiscard]] std::vector<double> delta_bounds() {
  return {0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

}  // namespace

Profiler::Profiler() : sim_delta_ns_(delta_bounds()) {}

Profiler::~Profiler() { detach(); }

Profiler::KindId Profiler::intern(const std::string& name) {
  const auto it = kind_index_.find(name);
  if (it != kind_index_.end()) return it->second;
  const auto id = static_cast<KindId>(kinds_.size());
  kinds_.push_back(KindStats{name, 0, 0, 0});
  kind_index_.emplace(name, id);
  return id;
}

void Profiler::attach(sim::Simulator& simulator) {
  detach();
  sim_ = &simulator;
  sim_->set_dispatch_hook(this);
}

void Profiler::detach() {
  if (sim_ != nullptr && sim_->dispatch_hook() == this) {
    sim_->set_dispatch_hook(nullptr);
  }
  sim_ = nullptr;
}

void Profiler::scope_begin(KindId kind) {
  stack_.push_back(ScopeFrame{kind, wall_now_ns(), 0});
}

void Profiler::scope_end() {
  if (stack_.empty()) {
    throw std::logic_error("Profiler::scope_end without matching scope_begin");
  }
  const ScopeFrame frame = stack_.back();
  stack_.pop_back();
  const auto elapsed =
      static_cast<std::uint64_t>(wall_now_ns() - frame.start_ns);
  KindStats& k = kinds_[frame.kind];
  ++k.count;
  k.total_wall_ns += elapsed;
  // Self-time excludes whatever nested scopes already claimed; clamp against
  // clock granularity making children appear longer than the parent.
  k.self_wall_ns += elapsed >= frame.child_ns ? elapsed - frame.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += elapsed;
}

void Profiler::begin_dispatch(sim::TimeNs /*now*/, sim::TimeNs delta) {
  ++dispatches_;
  sim_delta_ns_.observe(static_cast<double>(delta));
  dispatch_start_ns_ = wall_now_ns();
}

void Profiler::end_dispatch() {
  dispatch_wall_ns_ +=
      static_cast<std::uint64_t>(wall_now_ns() - dispatch_start_ns_);
}

std::string Profiler::to_json() const {
  // Keys are emitted sorted at every level so the document is a fixed point
  // of telemetry::json round-tripping (json::Value stores objects in a
  // sorted map). Adding a field? Keep it in alphabetical order.
  JsonWriter w;
  w.begin_object();
  w.key("kernel").begin_object();
  w.key("dispatch_wall_ns").value(dispatch_wall_ns_);
  w.key("dispatches").value(dispatches_);
  w.key("events_cancelled").value(events_cancelled_);
  w.key("events_scheduled").value(events_scheduled_);
  w.key("max_heap_depth")
      .value(static_cast<std::uint64_t>(sim_ != nullptr ? sim_->max_heap_depth() : 0));
  w.key("packet_ids_allocated")
      .value(sim_ != nullptr ? sim_->packet_ids_allocated() : 0);
  w.key("queue_backend")
      .value(sim_ != nullptr ? sim::queue_backend_name(sim_->queue_backend())
                             : "heap");
  w.key("queue_compactions")
      .value(sim_ != nullptr ? sim_->queue_compactions() : 0);
  w.key("sim_delta_ns").begin_object();
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < sim_delta_ns_.num_buckets(); ++i) {
    w.begin_object();
    w.key("count").value(sim_delta_ns_.bucket_count(i));
    const double le = sim_delta_ns_.upper_bound(i);
    if (std::isinf(le)) {
      w.key("le").value("inf");
    } else {
      w.key("le").value(static_cast<std::uint64_t>(le));
    }
    w.end_object();
  }
  w.end_array();
  w.key("count").value(sim_delta_ns_.count());
  w.key("sum").value(static_cast<std::uint64_t>(sim_delta_ns_.sum()));
  w.end_object();  // sim_delta_ns
  w.end_object();  // kernel
  w.key("schema").value("pmsb.profile/1");
  w.key("scopes").begin_array();
  // kind_index_ is already sorted by name.
  for (const auto& [name, id] : kind_index_) {
    const KindStats& k = kinds_[id];
    w.begin_object();
    w.key("count").value(k.count);
    w.key("name").value(name);
    w.key("self_wall_ns").value(k.self_wall_ns);
    w.key("total_wall_ns").value(k.total_wall_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace pmsb::telemetry
