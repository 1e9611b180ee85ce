// Leaf-spine fabric scenario for the large-scale FCT evaluation (§VI.B).
//
// Default shape matches the paper: 4 leaf and 4 spine switches, 12 hosts per
// leaf (48 hosts), all links 10 Gbps, non-blocking, per-flow ECMP across the
// spines. Every switch port runs the scheduler + marking scheme under test
// with 8 service queues of equal weight.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
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
#include "stats/fct.hpp"
#include "switchlib/switch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"
#include "trace/spans.hpp"
#include "transport/dctcp.hpp"
#include "workload/coflow.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::experiments {

struct LeafSpineConfig {
  std::size_t num_leaves = 4;
  std::size_t num_spines = 4;
  std::size_t hosts_per_leaf = 12;
  sim::RateBps link_rate = sim::gbps(10);
  /// Leaf<->spine link rate; 0 = same as link_rate (non-blocking, the
  /// paper's fabric). Lower it for an oversubscribed core.
  sim::RateBps core_rate = 0;
  sim::TimeNs link_delay = sim::microseconds(2);  ///< one-way, per link
  sched::SchedulerConfig scheduler;               ///< all switch ports
  ecn::MarkingConfig marking;                     ///< all switch ports
  std::uint64_t buffer_bytes = 1024ull * 1500ull; ///< per port
  /// Shared-buffer admission policy for every switch port (`buffer_policy=`
  /// at the CLI). Default static + no pool = historical per-port drop-tail.
  switchlib::BufferPolicyConfig buffer_policy;
  /// Per-SWITCH shared buffer pool in bytes (`buffer_bytes=` at the CLI):
  /// each leaf and spine gets its own pool spanning all its ports, the
  /// shared-memory-chip model. 0 with a static policy means no pools; 0
  /// with equal/dt defaults to buffer_bytes * ports-of-that-switch.
  std::uint64_t shared_pool_bytes = 0;
  transport::DctcpConfig transport;
  /// Event-queue backend for the kernel (`sched_queue=` at the CLI). Either
  /// choice produces bit-identical runs; calendar is faster at scale.
  sim::QueueBackend queue = sim::QueueBackend::kHeap;
};

class LeafSpineScenario {
 public:
  explicit LeafSpineScenario(const LeafSpineConfig& config);
  ~LeafSpineScenario();
  LeafSpineScenario(const LeafSpineScenario&) = delete;
  LeafSpineScenario& operator=(const LeafSpineScenario&) = delete;

  [[nodiscard]] std::size_t num_hosts() const {
    return cfg_.num_leaves * cfg_.hosts_per_leaf;
  }

  /// Instantiates one DCTCP flow per spec; completions land in fct().
  void add_workload(const std::vector<workload::FlowSpec>& specs);

  /// Workload-v2 entry point: like the vector overload, but when the
  /// workload carries groups a GroupTracker enforces the coflow stage
  /// barriers (stage > 0 flows are created up front with their start
  /// deferred to the barrier crossing) and per-spec deadlines land on the
  /// senders for the D2TCP path. A grouped workload must be the first and
  /// only workload added.
  void add_workload(const workload::Workload& wl);

  /// Barrier bookkeeping for a grouped workload; nullptr for plain lists.
  [[nodiscard]] const workload::GroupTracker* group_tracker() const {
    return tracker_.get();
  }

  /// The workload as it actually ran: every started flow's spec with its
  /// *realized* start time (barrier-released flows start at the barrier, not
  /// their nominal group start). Flows still waiting behind an uncrossed
  /// barrier are omitted. This is what `trace_export=` serializes.
  [[nodiscard]] std::vector<workload::FlowSpec> realized_workload() const;

  /// Runs until every workload flow completes, or `max_time` if sooner.
  /// Returns true if all flows completed.
  bool run_until_complete(sim::TimeNs max_time);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] stats::FctCollector& fct() { return fct_; }
  [[nodiscard]] net::Host& host(std::size_t idx) { return *hosts_.at(idx); }
  [[nodiscard]] switchlib::Switch& leaf(std::size_t idx) { return *leaves_.at(idx); }
  [[nodiscard]] switchlib::Switch& spine(std::size_t idx) { return *spines_.at(idx); }
  /// Per-switch shared pools (leaves then spines); empty when pool-less.
  [[nodiscard]] const std::vector<std::unique_ptr<switchlib::BufferPool>>& pools()
      const {
    return pools_;
  }
  [[nodiscard]] std::size_t completed_flows() const { return completed_; }
  [[nodiscard]] std::size_t total_flows() const { return flows_.size(); }

  /// Registers every switch port's instruments (labels
  /// `switch=<leaf|spine name>, port=<idx>`) plus fabric-wide transport
  /// aggregates (timeouts, retransmits, ECE acks, flows completed) summed
  /// across flows at collect time.
  void bind_metrics(telemetry::MetricsRegistry& registry);

  /// Adds one occupancy-bytes probe and one mark-rate column per switch
  /// port to `sampler`. Call before sampler.start().
  void add_sampler_columns(telemetry::TimeSeriesSampler& sampler);

  // --- Robustness plane ---
  /// Every directed link of the fabric, named by endpoints ("h3" -> "leaf0",
  /// "leaf1" -> "spine2", ...), for fault-plane matching.
  [[nodiscard]] const std::vector<faults::LinkRef>& link_refs() const {
    return link_refs_;
  }
  /// Interposes the plan's injectors into this fabric and remembers the plan
  /// so the conservation ledger accounts for its drops and delay stage.
  void install_faults(faults::FaultPlan& plan, std::uint64_t seed);
  /// Registers the standard fabric invariants (port accounting, packet
  /// conservation, flow liveness) on `checker`. Call at most once, after
  /// install_faults if a plan is in play.
  void install_invariants(faults::InvariantChecker& checker);
  /// Test hook for the deliberate-violation fixture.
  [[nodiscard]] faults::ConservationLedger& ledger() { return ledger_; }
  /// Total bytes cumulatively acked across all flows — the watchdog's
  /// progress measure.
  [[nodiscard]] std::uint64_t total_bytes_acked() const;
  [[nodiscard]] bool all_complete() const { return completed_ == flows_.size(); }

  /// Aggregate CE marks applied across every switch port (both points).
  [[nodiscard]] std::uint64_t total_marks() const;
  /// Aggregate drop count across every switch port.
  [[nodiscard]] std::uint64_t total_drops() const;
  /// Aggregate drops across every switch port, split by admission refusal
  /// reason (indexed by switchlib::DropReason).
  [[nodiscard]] std::array<std::uint64_t, switchlib::kNumDropReasons>
  total_drops_by_reason() const;

  // --- Regression plane ---
  /// Wires every switch port ("port/<switch>/<idx>") and every flow's
  /// sender ("flow/<idx>") into `digest`. Call once, after add_workload();
  /// the digest must outlive the scenario. finalize_digest() folds the final
  /// per-entity stats — call once, after the run.
  void install_digest(regress::RunDigest& digest);
  void finalize_digest();

  // --- Observability plane ---
  /// Attaches `profiler` to the kernel, every switch port, and every flow's
  /// sender. Call after add_workload(); the profiler must outlive the
  /// scenario's last event.
  void install_profiler(telemetry::Profiler& profiler);
  /// Wires span capture for watched flows: kSend/kAck at the source hosts,
  /// kEnqueue/kDequeue/kMark/kDrop at every switch port (labelled
  /// "<switch>/p<idx>") and kLinkTx/kRx on each leaf->host link. Call
  /// after add_workload(); `spans` must outlive the scenario.
  void install_span_tracer(trace::SpanTracer& spans);
  /// The port whose Tracer capture `trace_ndjson=` exports: the first
  /// spine's first downlink — a core port every leaf's traffic crosses.
  [[nodiscard]] switchlib::Port& trace_port() { return spines_.at(0)->port(0); }

  /// The un-loaded RTT between two hosts under different leaves.
  [[nodiscard]] sim::TimeNs base_rtt_interrack() const;

 private:
  [[nodiscard]] std::size_t leaf_of(std::size_t host) const {
    return host / cfg_.hosts_per_leaf;
  }

  LeafSpineConfig cfg_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<switchlib::Switch>> leaves_;
  std::vector<std::unique_ptr<switchlib::Switch>> spines_;
  std::vector<std::unique_ptr<switchlib::BufferPool>> pools_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<faults::LinkRef> link_refs_;
  faults::ConservationLedger ledger_;
  faults::FaultPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<transport::Flow>> flows_;
  std::vector<std::size_t> flow_src_idx_;  ///< flow idx -> source host idx
  std::vector<workload::FlowSpec> specs_;  ///< flow idx -> originating spec
  /// Flow idx -> time the flow actually started; kTimeNever = not started
  /// yet (waiting behind a stage barrier).
  std::vector<sim::TimeNs> realized_start_;
  std::unique_ptr<workload::GroupTracker> tracker_;
  std::size_t tracked_flows_ = 0;  ///< flows covered by tracker_'s indexing
  stats::FctCollector fct_;
  std::size_t completed_ = 0;
  net::FlowId next_flow_id_ = 1;
  std::unique_ptr<regress::DigestObserver> digest_;
  std::vector<std::pair<switchlib::Port*, regress::EntityId>> digest_ports_;
  std::vector<regress::EntityId> digest_flows_;
};

}  // namespace pmsb::experiments
