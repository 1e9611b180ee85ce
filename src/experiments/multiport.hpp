// Multi-bottleneck scenario: N senders and M receivers around one switch,
// so several egress ports are simultaneously under study. Used to probe
// cross-port effects: the shared service pool (per-pool marking couples
// ports) and independent-port baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/fabric.hpp"

namespace pmsb::experiments {

/// The scheduler, marking, buffer_bytes and buffer policy configure every
/// receiver port; a non-zero `shared_pool_bytes` (or a pooled policy) puts
/// all receiver ports in one pool, enabling per-service-pool marking.
struct MultiPortConfig : FabricConfig {
  std::size_t num_senders = 2;
  std::size_t num_receivers = 2;
};

struct MultiPortFlowSpec {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  net::ServiceId service = 0;
  std::uint64_t bytes = 0;  ///< 0 = long-lived
  sim::TimeNs start = 0;
  sim::RateBps max_rate = 0;
  bool pmsbe = false;
  sim::TimeNs pmsbe_rtt_threshold = 0;
};

class MultiPortScenario final : public Fabric {
 public:
  explicit MultiPortScenario(const MultiPortConfig& config);
  ~MultiPortScenario() override;

  /// Creates a DCTCP flow per the spec and pins its endpoints (see
  /// Fabric::flow); returns its index.
  std::size_t add_flow(const MultiPortFlowSpec& spec);

  void run(sim::TimeNs until) { sim_.run(until); }

  /// Receiver r's port; the studied ports, named "switch/<port idx>".
  [[nodiscard]] switchlib::Port& receiver_port(std::size_t r) {
    return *studied_.at(r).port;
  }
  [[nodiscard]] switchlib::BufferPool* pool() {
    return pools_.empty() ? nullptr : pools_.front().get();
  }

  /// Bytes served from queue q of receiver r's port (monotone).
  [[nodiscard]] std::uint64_t served_bytes(std::size_t r, std::size_t q) const {
    return studied_.at(r).port->scheduler().served_bytes(q);
  }

  // No metrics, sampler columns or spans of its own; the trace port is
  // receiver 0's, under its studied name.
  void bind_metrics(telemetry::MetricsRegistry&) override {}
  void add_sampler_columns(telemetry::TimeSeriesSampler&) override {}
  void install_span_tracer(trace::SpanTracer&) override {}
  [[nodiscard]] TracePort trace_port() override {
    return {receiver_port(0), studied_.front().name};
  }

 private:
  MultiPortConfig cfg_;
};

}  // namespace pmsb::experiments
