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
#include <vector>

#include "experiments/fabric.hpp"

namespace pmsb::experiments {

/// The scheduler, marking and buffer_bytes configure the switch->receiver
/// bottleneck; the buffer policy and `shared_pool_bytes` cover every switch
/// port, so the ACK paths feel the same buffer pressure.
struct DumbbellConfig : FabricConfig {
  std::size_t num_senders = 2;
  /// Rate of the sender->switch links; 0 means same as link_rate. Raising
  /// it makes the switch egress the unambiguous bottleneck even for a
  /// single flow (needed for the paper's Fig. 2 single-flow experiment).
  sim::RateBps sender_uplink_rate = 0;
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

class DumbbellScenario final : public Fabric {
 public:
  explicit DumbbellScenario(const DumbbellConfig& config);
  ~DumbbellScenario() override;

  /// Creates a DCTCP flow per the spec and pins its endpoints (see
  /// Fabric::flow); returns its index.
  std::size_t add_flow(const DumbbellFlowSpec& spec);

  void run(sim::TimeNs until) { sim_.run(until); }

  // --- Access for measurements ---
  [[nodiscard]] switchlib::Port& bottleneck() { return *studied_.front().port; }
  /// The shared buffer pool, or nullptr when the run is pool-less.
  [[nodiscard]] switchlib::BufferPool* pool() {
    return pools_.empty() ? nullptr : pools_.front().get();
  }
  [[nodiscard]] net::Host& sender(std::size_t idx) { return *hosts_.at(idx); }
  [[nodiscard]] net::Host& receiver() { return *hosts_.at(cfg_.num_senders); }

  /// Registers the bottleneck port's instruments (label `port=bottleneck`)
  /// and every flow's sender instruments (label `flow=<idx>`). Flows added
  /// after this call are not covered — bind after add_flow().
  void bind_metrics(telemetry::MetricsRegistry& registry) override;

  /// Adds bottleneck occupancy / per-queue backlog probes and a mark-rate
  /// column to `sampler`. Call before sampler.start().
  void add_sampler_columns(telemetry::TimeSeriesSampler& sampler) override;

  /// Monotone count of bytes the bottleneck has served from queue q.
  /// `run(until)` can be called repeatedly, so a rate over [t1, t2] is
  /// measured as: run(t1); s1 = served_bytes(q); run(t2); rate = delta/dt.
  [[nodiscard]] std::uint64_t served_bytes(std::size_t q) const {
    return studied_.front().port->scheduler().served_bytes(q);
  }

  /// Wires span capture for watched flows: kSend/kAck at the senders,
  /// kEnqueue/kDequeue/kMark/kDrop at the bottleneck port, kLinkTx/kRx on
  /// the bottleneck link. Call after add_flow(); `spans` must outlive the
  /// scenario.
  void install_span_tracer(trace::SpanTracer& spans) override;
  /// The port whose Tracer capture `trace_ndjson=` exports.
  [[nodiscard]] switchlib::Port& trace_port() override { return bottleneck(); }

  /// The un-loaded round-trip time sender -> receiver -> sender.
  [[nodiscard]] static sim::TimeNs base_rtt(const FabricConfig& cfg) {
    return unloaded_rtt(cfg, 2);
  }
  [[nodiscard]] sim::TimeNs base_rtt() const { return base_rtt(cfg_); }

 private:
  DumbbellConfig cfg_;
};

}  // namespace pmsb::experiments
