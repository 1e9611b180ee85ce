// Dumbbell scenario: N sender hosts and one receiver host around a single
// switch; the switch->receiver port is the bottleneck under study.
//
// This is the topology of every static-flow experiment in the paper
// (Figs. 1-15): senders are classified into the bottleneck port's queues by
// their flow's service tag, and the port runs the scheduler + marking scheme
// being evaluated. All other ports (ACK return paths) are plain FIFO with
// marking disabled.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ecn/factory.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/standard_checks.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "regress/digest_observer.hpp"
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "stats/summary.hpp"
#include "switchlib/switch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"
#include "trace/spans.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::experiments {

struct DumbbellConfig {
  std::size_t num_senders = 2;
  sim::RateBps link_rate = sim::gbps(10);
  /// Rate of the sender->switch links; 0 means same as link_rate. Raising
  /// it makes the switch egress the unambiguous bottleneck even for a
  /// single flow (needed for the paper's Fig. 2 single-flow experiment).
  sim::RateBps sender_uplink_rate = 0;
  sim::TimeNs link_delay = sim::microseconds(2);  ///< one-way, per link
  sched::SchedulerConfig scheduler;               ///< bottleneck port
  ecn::MarkingConfig marking;                     ///< bottleneck port
  std::uint64_t buffer_bytes = 1024ull * 1500ull; ///< bottleneck port buffer
  /// Shared-buffer admission policy for every switch port (`buffer_policy=`
  /// at the CLI). The default static policy with no pool is digest-identical
  /// to the historical per-port drop-tail.
  switchlib::BufferPolicyConfig buffer_policy;
  /// Shared buffer pool across ALL switch ports, in bytes (`buffer_bytes=`
  /// at the CLI). 0 with a static policy means no pool (historical
  /// behavior); 0 with equal/dt defaults to buffer_bytes * num_ports so the
  /// pool matches the static budgets it replaces.
  std::uint64_t shared_pool_bytes = 0;
  transport::DctcpConfig transport;               ///< default per-flow config
  /// Event-queue backend for the kernel (`sched_queue=` at the CLI). Either
  /// choice produces bit-identical runs; calendar is faster at scale.
  sim::QueueBackend queue = sim::QueueBackend::kHeap;
};

struct DumbbellFlowSpec {
  std::size_t sender = 0;            ///< sender host index [0, num_senders)
  net::ServiceId service = 0;        ///< classifies into a bottleneck queue
  std::uint64_t bytes = 0;           ///< 0 = long-lived
  sim::TimeNs start = 0;
  sim::RateBps max_rate = 0;         ///< 0 = unlimited
  bool pmsbe = false;                ///< enable Algorithm 2 at this sender
  sim::TimeNs pmsbe_rtt_threshold = 0;
};

class DumbbellScenario {
 public:
  explicit DumbbellScenario(const DumbbellConfig& config);
  ~DumbbellScenario();
  DumbbellScenario(const DumbbellScenario&) = delete;
  DumbbellScenario& operator=(const DumbbellScenario&) = delete;

  /// Creates a DCTCP flow per the spec; returns its index.
  std::size_t add_flow(const DumbbellFlowSpec& spec);

  void run(sim::TimeNs until) { sim_.run(until); }

  // --- Access for measurements ---
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] switchlib::Port& bottleneck() { return switch_->port(bottleneck_port_); }
  [[nodiscard]] switchlib::Switch& fabric() { return *switch_; }
  /// The shared buffer pool, or nullptr when the run is pool-less.
  [[nodiscard]] switchlib::BufferPool* pool() { return pool_.get(); }
  [[nodiscard]] transport::Flow& flow(std::size_t idx) { return *flows_.at(idx); }
  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }
  [[nodiscard]] net::Host& sender(std::size_t idx) { return *senders_.at(idx); }
  [[nodiscard]] net::Host& receiver() { return *receiver_; }

  /// Registers the bottleneck port's instruments (label `port=bottleneck`)
  /// and every flow's sender instruments (label `flow=<idx>`). Flows added
  /// after this call are not covered — bind after add_flow().
  void bind_metrics(telemetry::MetricsRegistry& registry);

  /// Adds bottleneck occupancy / per-queue backlog probes and a mark-rate
  /// column to `sampler`. Call before sampler.start().
  void add_sampler_columns(telemetry::TimeSeriesSampler& sampler);

  /// Monotone count of bytes the bottleneck has served from queue q.
  /// `run(until)` can be called repeatedly, so a rate over [t1, t2] is
  /// measured as: run(t1); s1 = served_bytes(q); run(t2); rate = delta/dt.
  [[nodiscard]] std::uint64_t served_bytes(std::size_t q) const {
    return switch_->port(bottleneck_port_).scheduler().served_bytes(q);
  }

  // --- Robustness plane ---
  /// Directed links named by endpoints ("sender0" -> "switch", "switch" ->
  /// "receiver", ...), for fault-plane matching.
  [[nodiscard]] const std::vector<faults::LinkRef>& link_refs() const {
    return link_refs_;
  }
  void install_faults(faults::FaultPlan& plan, std::uint64_t seed);
  /// Registers the standard fabric invariants on `checker`. Call at most
  /// once, after install_faults if a plan is in play and after add_flow so
  /// the liveness check sees every flow.
  void install_invariants(faults::InvariantChecker& checker);
  /// Test hook for the deliberate-violation fixture.
  [[nodiscard]] faults::ConservationLedger& ledger() { return ledger_; }
  /// Total bytes cumulatively acked — the watchdog's progress measure.
  [[nodiscard]] std::uint64_t total_bytes_acked() const;
  /// True when every flow has completed. A long-lived flow never completes,
  /// so with one present this stays false — flat progress then counts as a
  /// stall, which is what the watchdog wants for a duration-based run.
  [[nodiscard]] bool all_complete() const;

  // --- Regression plane ---
  /// Wires the bottleneck port, its link, and every flow's sender into
  /// `digest` (entities "port/bottleneck", "link/switch->receiver",
  /// "flow/<idx>"). Call once, after add_flow(); the digest must outlive
  /// the scenario. finalize_digest() folds the final per-entity stats — call it
  /// once, after the run.
  void install_digest(regress::RunDigest& digest);
  void finalize_digest();

  // --- Observability plane ---
  /// Attaches `profiler` to the kernel and to the instrumented components
  /// (bottleneck port + every flow's sender). Call after add_flow(); the
  /// profiler must outlive the scenario's last event (it detaches itself
  /// from the kernel on destruction).
  void install_profiler(telemetry::Profiler& profiler);
  /// Wires span capture for watched flows: kSend/kAck at the senders,
  /// kEnqueue/kDequeue/kMark/kDrop at the bottleneck port, kLinkTx/kRx on
  /// the bottleneck link. Call after add_flow(); `spans` must outlive the
  /// scenario.
  void install_span_tracer(trace::SpanTracer& spans);
  /// The port whose Tracer capture `trace_ndjson=` exports.
  [[nodiscard]] switchlib::Port& trace_port() { return bottleneck(); }

  /// The un-loaded round-trip time sender -> receiver -> sender.
  [[nodiscard]] sim::TimeNs base_rtt() const;

  [[nodiscard]] const DumbbellConfig& config() const { return cfg_; }

 private:
  DumbbellConfig cfg_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Host>> senders_;
  std::unique_ptr<net::Host> receiver_;
  std::unique_ptr<switchlib::Switch> switch_;
  std::unique_ptr<switchlib::BufferPool> pool_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<faults::LinkRef> link_refs_;
  faults::ConservationLedger ledger_;
  faults::FaultPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<transport::Flow>> flows_;
  std::vector<std::size_t> flow_sender_idx_;  ///< flow idx -> sender host idx
  std::size_t bottleneck_port_ = 0;
  net::FlowId next_flow_id_ = 1;
  std::unique_ptr<regress::DigestObserver> digest_;
  regress::EntityId digest_port_ = 0;
  regress::EntityId digest_link_ = 0;
  std::vector<regress::EntityId> digest_flows_;
};

}  // namespace pmsb::experiments
