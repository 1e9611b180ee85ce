// Fabric: the state and run planes every scenario shares.
//
// Both of the paper's testbeds, the single-switch dumbbell (Figs. 1-15) and
// the 4x4 leaf-spine (§VI.B), are the same kind of object: switch ports
// running the scheme under test, DCTCP hosts, and per-port and per-flow
// counters. Fabric owns that object (simulator, hosts, switches, links,
// shared pools, flows, conservation ledger) and implements each run plane
// once over it: faults, invariants, watchdog progress, digest, profiler.
// A scenario derives from it and keeps its wiring, its flow creation and
// its output formats (metric labels, sampler columns, span node names,
// trace port).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ecn/factory.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/standard_checks.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/packet_observer.hpp"
#include "regress/digest_observer.hpp"
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "switchlib/switch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"
#include "trace/spans.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::experiments {

/// Settings every scenario shares; the scenario configs add their shape.
struct FabricConfig {
  sim::RateBps link_rate = sim::gbps(10);
  sim::TimeNs link_delay = sim::microseconds(2);  ///< one-way, per link
  sched::SchedulerConfig scheduler;               ///< studied ports
  ecn::MarkingConfig marking;                     ///< studied ports
  std::uint64_t buffer_bytes = 1024ull * 1500ull; ///< per studied port
  /// Shared-buffer admission policy (`buffer_policy=` at the CLI). The
  /// default static policy with no pool is digest-identical to the
  /// historical per-port drop-tail.
  switchlib::BufferPolicyConfig buffer_policy;
  /// Shared buffer pool in bytes (`buffer_bytes=` at the CLI); each
  /// scenario says which ports share a pool. 0 with a static policy means
  /// no pool; 0 with equal/dt means buffer_bytes x the ports in the pool.
  std::uint64_t shared_pool_bytes = 0;
  transport::DctcpConfig transport;  ///< default per-flow config
  /// Event-queue backend for the kernel (`sched_queue=` at the CLI). Either
  /// choice produces bit-identical runs; the calendar's near-future ring
  /// takes most packet-path events off the heap, and the heap alone is the
  /// oracle.
  sim::QueueBackend queue = sim::QueueBackend::kCalendar;
};

/// The unloaded RTT over `hops` links each way: store-and-forward
/// serialization of a data packet at each transmitter out and of an ACK
/// at each transmitter back, plus propagation on every link.
[[nodiscard]] sim::TimeNs unloaded_rtt(const FabricConfig& cfg, std::size_t hops);

/// A switch port under study, with the name it carries in the digest
/// ("port/<name>").
struct StudiedPort {
  switchlib::Port* port;
  std::string name;
};

/// The fabric's active flows: those that have sent a segment and were not
/// complete at the last walk, in ascending flow index. A flow has bytes in
/// flight only between its first send and its completion, so this is every
/// flow the liveness check can fail, and the per-tick walks cost
/// O(active flows) rather than O(flows ever added). Tapped onto every
/// sender with the flow's index as its site, it admits a flow at its first
/// on_send; walk() retires completed flows, keeping the bytes they acked.
/// Senders hold its address, so it must outlive them.
class ActiveFlows final : public net::PacketObserver {
 public:
  using Flows = std::vector<std::unique_ptr<transport::Flow>>;

  /// Taps the sender of the next flow index; call once per flow, in index
  /// order.
  void track(transport::DctcpSender& sender) {
    sender.add_observer(this, static_cast<net::SiteId>(sent_.size()));
    sent_.push_back(false);
  }

  void on_send(net::SiteId flow, sim::TimeNs now, const net::Packet& pkt,
               bool retransmit) override;

  /// Retires the flows of `flows` that completed since the last walk and
  /// returns the rest: every flow that has sent and is still incomplete.
  const std::vector<net::SiteId>& walk(const Flows& flows);

  /// The set as of the last walk or send; it may still hold flows that
  /// completed since the last walk.
  [[nodiscard]] const std::vector<net::SiteId>& flows() const { return active_; }
  /// How many flows have sent at least one segment.
  [[nodiscard]] std::size_t num_sent() const { return num_sent_; }
  /// Bytes acked by the retired flows, final since each one completed.
  [[nodiscard]] std::uint64_t retired_bytes() const { return retired_bytes_; }

 private:
  std::vector<bool> sent_;          ///< flow idx -> has sent a segment
  std::vector<net::SiteId> active_;  ///< ascending flow indices
  std::size_t num_sent_ = 0;
  std::uint64_t retired_bytes_ = 0;
};

class Fabric {
 public:
  virtual ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] transport::Flow& flow(std::size_t idx) { return *flows_.at(idx); }
  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }

  /// CE marks applied at the studied ports (both marking points).
  [[nodiscard]] std::uint64_t total_marks() const;
  /// Drops at the studied ports.
  [[nodiscard]] std::uint64_t total_drops() const;
  /// Drops at the studied ports, split by admission refusal reason
  /// (indexed by switchlib::DropReason).
  [[nodiscard]] std::array<std::uint64_t, switchlib::kNumDropReasons>
  total_drops_by_reason() const;

  // --- Robustness plane ---
  /// Every directed link, named by its endpoints ("sender0" -> "switch",
  /// "leaf1" -> "spine2", ...), for fault-plane matching.
  [[nodiscard]] const std::vector<faults::LinkRef>& link_refs() const {
    return link_refs_;
  }
  /// Interposes the plan's injectors into the fabric and remembers the plan
  /// so the conservation ledger accounts for its drops and delay stage.
  void install_faults(faults::FaultPlan& plan, std::uint64_t seed);
  /// Registers the standard fabric invariants (port accounting, packet
  /// conservation, flow liveness) on `checker`. Call at most once, after
  /// install_faults if a plan is in play and after the hosts, switches and
  /// links are built. The liveness check tests every active flow, so flows
  /// added later are covered too.
  void install_invariants(faults::InvariantChecker& checker);
  /// Test hook for the deliberate-violation fixture.
  [[nodiscard]] faults::ConservationLedger& ledger() { return ledger_; }
  /// Total bytes cumulatively acked across all flows — the watchdog's
  /// progress measure. Exact at O(active flows): the retired flows' bytes
  /// plus the active flows' (a flow that never sent has acked none).
  [[nodiscard]] std::uint64_t total_bytes_acked();
  /// True when every flow has completed: every flow has sent and no active
  /// flow is incomplete (a finite flow completes only through an ACK, so
  /// only after a send). A long-lived flow never completes, so with one
  /// present this stays false — flat progress then counts as a stall,
  /// which is what the watchdog wants for a duration-based run.
  [[nodiscard]] bool all_complete();
  /// The watchdog's forensic line: flows completed, bytes acked, and the
  /// bytes queued at the studied ports.
  [[nodiscard]] std::string progress_line();
  /// The active flows' indices, ascending (see ActiveFlows); it may still
  /// list flows that completed since the last walk. Read-only, for tests.
  [[nodiscard]] const std::vector<net::SiteId>& active_flows() const {
    return active_.flows();
  }

  // --- Regression plane ---
  /// Wires the studied ports ("port/<name>"), the digest links
  /// ("link/<src>-><dst>") and every flow's sender ("flow/<idx>") into
  /// `digest`, in that order: entity ids feed the stream hash. Call once,
  /// after the flows are added; the digest must outlive the fabric.
  /// finalize_digest() folds the final per-entity stats, the same list on
  /// every fabric — call it once, after the run.
  void install_digest(regress::RunDigest& digest);
  void finalize_digest();

  // --- Observability plane ---
  /// Attaches `profiler` to the kernel, the studied ports and every flow's
  /// sender. Call after the flows are added; the profiler must outlive the
  /// fabric's last event (it detaches itself from the kernel on
  /// destruction).
  void install_profiler(telemetry::Profiler& profiler);

  // --- Per-scenario output formats ---
  /// Registers the scenario's instruments. Flows added after this call are
  /// not covered.
  virtual void bind_metrics(telemetry::MetricsRegistry& registry) = 0;
  /// Adds the scenario's sampler columns. Call before sampler.start().
  virtual void add_sampler_columns(telemetry::TimeSeriesSampler& sampler) = 0;
  /// Wires span capture for watched flows. Call after the flows are added;
  /// `spans` must outlive the fabric.
  virtual void install_span_tracer(trace::SpanTracer& spans) = 0;
  /// The port whose Tracer capture `trace_ndjson=` exports.
  [[nodiscard]] virtual switchlib::Port& trace_port() = 0;

 protected:
  explicit Fabric(sim::QueueBackend queue);

  /// Adds a host whose id is its index in hosts_.
  net::Host& add_host(std::string name);
  switchlib::Switch& add_switch(std::string name, std::uint64_t ecmp_salt = 0);
  /// Adds the directed link src -> dst, named by its endpoints.
  net::Link& add_link(const net::Node& src, net::Node& dst, sim::RateBps rate,
                      sim::TimeNs delay);
  /// Puts `ports` in one shared pool (appended to pools_) when `cfg` asks
  /// for one: a pool of shared_pool_bytes, or, under a pooled policy, of
  /// buffer_bytes per port. Call after every add_port so each member gets
  /// a ledger slot.
  void pool_ports(const std::vector<switchlib::Port*>& ports, const FabricConfig& cfg);
  /// Creates a DCTCP flow from host `src` to host `dst`, tapped by the
  /// active-flow set; the caller starts it.
  transport::Flow& add_dctcp_flow(std::size_t src, std::size_t dst,
                                  net::ServiceId service, std::uint64_t bytes,
                                  const transport::DctcpConfig& tc);
  /// Reports every flow's kSend/kAck spans at its source host.
  void trace_flow_senders(trace::SpanTracer& spans);
  [[nodiscard]] static std::vector<switchlib::Port*> all_ports(switchlib::Switch& sw);

  // Destroyed in reverse order: flows first, then the active-flow set their
  // senders tap, links, pools, switches and hosts, and last the simulator
  // they all schedule on.
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<switchlib::Switch>> switches_;
  std::vector<std::unique_ptr<switchlib::BufferPool>> pools_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<faults::LinkRef> link_refs_;  ///< one per link, in wiring order

 private:
  ActiveFlows active_;

 protected:
  std::vector<std::unique_ptr<transport::Flow>> flows_;
  std::vector<StudiedPort> studied_;            ///< in digest order
  std::vector<faults::LinkRef> digest_links_;  ///< digested after the ports

 private:
  std::vector<std::size_t> flow_src_;  ///< flow idx -> source host idx
  faults::ConservationLedger ledger_;
  faults::FaultPlan* plan_ = nullptr;
  net::FlowId next_flow_id_ = 1;
  std::unique_ptr<regress::DigestObserver> digest_;
  std::vector<regress::EntityId> digest_ids_;  ///< ports, links, then flows
};

}  // namespace pmsb::experiments
