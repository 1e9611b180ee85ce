// Leaf-spine fabric scenario for the large-scale FCT evaluation (§VI.B).
//
// Default shape matches the paper: 4 leaf and 4 spine switches, 12 hosts per
// leaf (48 hosts), all links 10 Gbps, non-blocking, per-flow ECMP across the
// spines. Every switch port runs the scheduler + marking scheme under test
// with 8 service queues of equal weight.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "experiments/fabric.hpp"
#include "stats/fct.hpp"
#include "workload/coflow.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::experiments {

/// The scheduler, marking, buffer_bytes and buffer policy configure every
/// switch port; `shared_pool_bytes` sizes one pool PER SWITCH spanning all
/// its ports, the shared-memory-chip model.
struct LeafSpineConfig : FabricConfig {
  std::size_t num_leaves = 4;
  std::size_t num_spines = 4;
  std::size_t hosts_per_leaf = 12;
  /// Leaf<->spine link rate; 0 = same as link_rate (non-blocking, the
  /// paper's fabric). Lower it for an oversubscribed core.
  sim::RateBps core_rate = 0;
};

class LeafSpineScenario final : public Fabric {
 public:
  explicit LeafSpineScenario(const LeafSpineConfig& config);
  ~LeafSpineScenario() override;

  [[nodiscard]] std::size_t num_hosts() const {
    return cfg_.num_leaves * cfg_.hosts_per_leaf;
  }

  /// Adds one DCTCP flow per spec to the flow table; each is built at its
  /// start and its completion lands in fct().
  void add_workload(std::vector<workload::FlowSpec> specs);

  /// Workload-v2 entry point: like the vector overload, but when the
  /// workload carries groups a GroupTracker enforces the coflow stage
  /// barriers (stage > 0 flows are added up front and held back until the
  /// barrier crossing) and per-spec deadlines land on the senders for the
  /// D2TCP path. A grouped workload must be the first and only workload
  /// added. The specs are not kept (each flow's slot holds what it was
  /// added with, a small tag its pattern, group and stage), so pass the
  /// workload by move and it is freed once its flows are added.
  void add_workload(workload::Workload wl);

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

  [[nodiscard]] stats::FctCollector& fct() { return fct_; }
  [[nodiscard]] switchlib::Switch& leaf(std::size_t idx) { return *switches_.at(idx); }
  [[nodiscard]] switchlib::Switch& spine(std::size_t idx) {
    return *switches_.at(cfg_.num_leaves + idx);
  }
  [[nodiscard]] std::size_t completed_flows() const { return flows_done(); }
  [[nodiscard]] std::size_t total_flows() const { return num_flows(); }

  /// Registers every switch port's instruments (labels
  /// `switch=<leaf|spine name>, port=<idx>`) plus fabric-wide transport
  /// aggregates (timeouts, retransmits, ECE acks, flows completed) summed
  /// across flows at collect time.
  void bind_metrics(telemetry::MetricsRegistry& registry) override;

  /// Adds one occupancy-bytes probe and one mark-rate column per switch
  /// port to `sampler`. Call before sampler.start().
  void add_sampler_columns(telemetry::TimeSeriesSampler& sampler) override;

  /// Wires span capture for watched flows: kSend/kAck at the source hosts,
  /// kEnqueue/kDequeue/kMark/kDrop at every switch port (labelled
  /// "<switch>/p<idx>") and kLinkTx/kRx on each leaf->host link. Call
  /// after add_workload(); `spans` must outlive the scenario.
  void install_span_tracer(trace::SpanTracer& spans) override;
  /// The port whose capture `trace_ndjson=` exports: the first spine's
  /// first downlink — a core port every leaf's traffic crosses — span node
  /// "spine0/p0".
  [[nodiscard]] TracePort trace_port() override {
    return {spine(0).port(0), port_node(spine(0), 0)};
  }

  /// The un-loaded RTT between two hosts under different leaves.
  [[nodiscard]] static sim::TimeNs base_rtt_interrack(const FabricConfig& cfg) {
    return unloaded_rtt(cfg, 4);
  }
  [[nodiscard]] sim::TimeNs base_rtt_interrack() const {
    return base_rtt_interrack(cfg_);
  }

 private:
  /// Port `p` of `sw`'s span node name, "<switch>/p<idx>".
  [[nodiscard]] static std::string port_node(const switchlib::Switch& sw, std::size_t p) {
    return sw.name() + "/p" + std::to_string(p);
  }
  [[nodiscard]] std::size_t leaf_of(std::size_t host) const {
    return host / cfg_.hosts_per_leaf;
  }

  /// Records the flow's FCT, releases the flows its stage barrier held
  /// back, and stops the run once every flow is done.
  void on_flow_complete(std::size_t idx) override;

  /// What a flow's FCT record and realized spec carry beyond its slot.
  struct FlowTag {
    std::uint32_t group;
    std::uint16_t stage;
    stats::PatternTag pattern;
  };

  LeafSpineConfig cfg_;
  std::vector<FlowTag> tags_;  ///< flow idx -> its spec's group, stage, pattern
  std::unique_ptr<workload::GroupTracker> tracker_;
  std::size_t tracked_flows_ = 0;  ///< flows covered by tracker_'s indexing
  stats::FctCollector fct_;
};

}  // namespace pmsb::experiments
