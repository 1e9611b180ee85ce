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
//
// The flow table builds a flow's endpoints at its start and frees them at
// its completion, unless the flow is pinned. The sender's timers are
// sim::Timers, so freeing it turns its armed retransmission timer into a
// tombstone, and the endpoints alive at any instant are the flows in
// flight plus the pinned ones. The fabric answers a late segment for a
// freed flow as its receiver would have.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
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

/// The port a `trace_ndjson=` capture watches, with the span node name the
/// scenario's span wiring gives it, so the capture's spans and that port's
/// spans in a `trace_flows=all` capture are the same lines.
struct TracePort {
  switchlib::Port& port;
  std::string node;
};

/// One flow of a fabric's flow table: what it was added with, its
/// endpoints while they live, and its outcome once it is done. Slots are
/// indexed by the dense flow index (transport flow id - 1) and never move
/// out of the table.
struct FlowSlot {
  enum class State : std::uint8_t {
    kPending,  ///< waiting for its start (or held back, start == kTimeNever)
    kRunning,  ///< started, not complete: the fabric's live flows
    kDone,     ///< complete; its outcome below is final
  };

  /// The endpoints: built at the flow's start (or when pinned) and freed at
  /// its completion, unless pinned.
  std::unique_ptr<transport::FlowEndpoints> endpoints;
  transport::SenderStats stats;    ///< outcome: recorded at completion
  std::uint64_t bytes = 0;         ///< flow size; 0 = long-lived
  /// When the flow starts, or started: its spec time, or the instant a
  /// held-back flow was released; kTimeNever while held back.
  sim::TimeNs start = 0;
  sim::TimeNs completion = 0;      ///< outcome: recorded at completion
  sim::TimeNs deadline = 0;        ///< absolute D2TCP deadline; 0 = none
  net::HostId src = 0;
  net::HostId dst = 0;
  net::ServiceId service = 0;
  State state = State::kPending;
  bool pinned = false;             ///< endpoints kept until the fabric dies
  std::uint16_t config = 0;        ///< index into the fabric's transport configs

  /// The sender's counters: live while its endpoints exist, else the
  /// recorded outcome (all zero for a flow that never started).
  [[nodiscard]] const transport::SenderStats& sender_stats() const {
    return endpoints ? endpoints->sender().stats() : stats;
  }
  /// Bytes cumulatively acked. A sender completes once the whole flow is
  /// acked and no receiver acks past the flow's end, so a done flow has
  /// acked exactly `bytes`.
  [[nodiscard]] std::uint64_t acked() const {
    if (endpoints) return endpoints->sender().bytes_acked();
    return state == State::kDone ? bytes : 0;
  }
};
static_assert(sizeof(FlowSlot) <= 128, "a slot is all a flow costs until it starts");

class Fabric : private net::FlowDemux {
 public:
  virtual ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  // --- Flow table ---
  /// Flow `idx`'s endpoints, built now if they are not, and pinned: they
  /// live as long as the fabric, so a caller can read the sender after the
  /// run. Throws std::logic_error once they have been freed; pin a flow
  /// before it completes.
  [[nodiscard]] transport::FlowEndpoints& flow(std::size_t idx);
  [[nodiscard]] std::size_t num_flows() const { return slots_.size(); }
  /// Flow `idx`'s slot, read-only.
  [[nodiscard]] const FlowSlot& slot(std::size_t idx) const { return slots_.at(idx); }
  /// The live flows: started and not complete, in ascending index. A flow
  /// has bytes in flight only while it is live, so the liveness check and
  /// the watchdog probes walk this list, O(live flows) per tick.
  [[nodiscard]] const std::vector<std::uint32_t>& live_flows() const { return live_; }
  /// Flows completed so far.
  [[nodiscard]] std::size_t flows_done() const { return flows_done_; }

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
  /// links are built. The liveness check tests every live flow, so flows
  /// added later are covered too.
  void install_invariants(faults::InvariantChecker& checker);
  /// Test hook for the deliberate-violation fixture.
  [[nodiscard]] faults::ConservationLedger& ledger() { return ledger_; }
  /// Total bytes cumulatively acked across all flows — the watchdog's
  /// progress measure. Exact at O(live flows): the completed flows' bytes
  /// plus the live flows' (a flow that has not started has acked none).
  [[nodiscard]] std::uint64_t total_bytes_acked() const;
  /// True when every flow has completed. A long-lived flow never completes,
  /// so with one present this stays false — flat progress then counts as a
  /// stall, which is what the watchdog wants for a duration-based run.
  [[nodiscard]] bool all_complete() const { return flows_done_ == slots_.size(); }
  /// The watchdog's forensic line: flows completed, bytes acked, and the
  /// bytes queued at the studied ports.
  [[nodiscard]] std::string progress_line() const;

  // --- Regression plane ---
  /// Wires the studied ports ("port/<name>"), the digest links
  /// ("link/<src>-><dst>") and every flow's sender ("flow/<idx>") into
  /// `digest`, in that order: entity ids feed the stream hash. Every flow's
  /// entity is registered now; a sender built later is tapped at its start.
  /// Call once, after the flows are added; the digest must outlive the
  /// fabric.
  /// finalize_digest() folds the final per-entity stats, the same list on
  /// every fabric — call it once, after the run.
  void install_digest(regress::RunDigest& digest);
  void finalize_digest();

  // --- Observability plane ---
  /// Attaches `profiler` to the kernel, the studied ports and every flow's
  /// sender (a sender built later gets it at its start). The profiler must
  /// outlive the fabric's last event (it detaches itself from the kernel on
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
  /// The port whose capture `trace_ndjson=` exports, and its span node.
  [[nodiscard]] virtual TracePort trace_port() = 0;

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
  /// Adds a DCTCP flow from host `src` to host `dst` to the table and
  /// returns its index. It starts at `start` (>= now) under a sequence
  /// number reserved now, so it runs where a start scheduled now would
  /// have; kTimeNever holds it back until release_flow(). Call
  /// queue_next_start() once the caller's flows are added.
  std::size_t add_dctcp_flow(std::size_t src, std::size_t dst, net::ServiceId service,
                             std::uint64_t bytes, const transport::DctcpConfig& tc,
                             sim::TimeNs start, sim::TimeNs deadline = 0);
  /// Room for `n` flows in all, so a bulk add grows the table once.
  void reserve_flows(std::size_t n);
  /// Starts held-back flow `idx` now, behind everything already scheduled
  /// for now. Call queue_next_start() after the last release.
  void release_flow(std::size_t idx);
  /// Queues the earliest pending start on a start timer if it is not queued
  /// yet. Only that head waits in the event queue (and any start added ahead
  /// of it since); each start queues the next.
  void queue_next_start();
  /// Called after flow `idx` completes, once the fabric has recorded its
  /// outcome, from within the event that delivered its last ACK.
  virtual void on_flow_complete(std::size_t /*idx*/) {}
  /// Reports every flow's kSend/kAck spans at its source host.
  void trace_flow_senders(trace::SpanTracer& spans);
  [[nodiscard]] static std::vector<switchlib::Port*> all_ports(switchlib::Switch& sw);

  // Destroyed in reverse order: the flow table (private, below) first, then
  // links, pools, switches and hosts, and last the simulator they all
  // schedule on.
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<switchlib::Switch>> switches_;
  std::vector<std::unique_ptr<switchlib::BufferPool>> pools_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<faults::LinkRef> link_refs_;  ///< one per link, in wiring order
  std::vector<StudiedPort> studied_;            ///< in digest order
  std::vector<faults::LinkRef> digest_links_;  ///< digested after the ports

 private:
  /// A pending start: flow `idx` at (time, seq), the position schedule_at
  /// would have given it when it was added. `queued` once its event is in
  /// the simulator.
  struct PendingStart {
    sim::TimeNs time;
    std::uint64_t seq;
    std::uint32_t idx;
    bool queued;
  };
  /// One queued start event. It runs the start list's top, the start it was
  /// armed for (`seq`). A second one is made only when a start is added
  /// ahead of a queued one; idle ones are reused.
  struct StartTimer {
    explicit StartTimer(Fabric& f) : timer(f.sim_, &StartTimer::fire, this), fabric(f) {}
    static void fire(void* self) {
      auto* t = static_cast<StartTimer*>(self);
      t->fabric.run_next_start(t->seq);
    }
    sim::Timer timer;
    Fabric& fabric;
    std::uint64_t seq = 0;
  };
  bool deliver(net::Host& host, const net::Packet& pkt) override;
  /// Adds flow `idx`'s start at `time` under a sequence number reserved now.
  void push_start(sim::TimeNs time, std::uint32_t idx);
  /// Runs the earliest pending start: builds the flow's endpoints unless
  /// pinned ones exist, makes it live and sends its first window.
  void run_next_start(std::uint64_t seq);
  /// Builds flow `idx`'s endpoints and applies every plane installed so far.
  transport::FlowEndpoints& build(std::uint32_t idx);
  /// Records flow `idx`'s outcome, retires it from the live flows and,
  /// unless it is pinned, frees its endpoints.
  void complete(std::uint32_t idx);

  std::vector<FlowSlot> slots_;
  std::vector<transport::DctcpConfig> configs_;  ///< distinct per-flow configs
  std::vector<PendingStart> starts_;  ///< min-heap on (time, seq)
  std::deque<StartTimer> start_timers_;  ///< stable addresses: each is its timer's ctx
  std::vector<std::uint32_t> live_;  ///< running flows, ascending
  std::size_t flows_done_ = 0;
  std::uint64_t done_bytes_acked_ = 0;

  faults::ConservationLedger ledger_;
  faults::FaultPlan* plan_ = nullptr;
  // Planes applied to each sender when its endpoints are built.
  std::unique_ptr<regress::DigestObserver> digest_;
  std::vector<regress::EntityId> digest_ids_;  ///< ports, then links
  regress::EntityId first_flow_entity_ = 0;    ///< "flow/0"; flow i is this + i
  trace::SpanTracer* spans_ = nullptr;
  std::vector<trace::NodeId> span_nodes_;      ///< host idx -> span node
  telemetry::Profiler* profiler_ = nullptr;
};

}  // namespace pmsb::experiments
