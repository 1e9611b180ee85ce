// Multi-bottleneck scenario: N senders and M receivers around one switch,
// so several egress ports are simultaneously under study. Used to probe
// cross-port effects: the shared service pool (per-pool marking couples
// ports) and independent-port baselines.
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
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "switchlib/buffer_pool.hpp"
#include "switchlib/switch.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::experiments {

struct MultiPortConfig {
  std::size_t num_senders = 2;
  std::size_t num_receivers = 2;
  sim::RateBps link_rate = sim::gbps(10);
  sim::TimeNs link_delay = sim::microseconds(2);
  sched::SchedulerConfig scheduler;                ///< every receiver port
  ecn::MarkingConfig marking;                      ///< every receiver port
  std::uint64_t buffer_bytes = 1024ull * 1500ull;  ///< per receiver port
  /// When non-zero, all receiver ports share one buffer pool of this size
  /// (enables per-service-pool marking semantics).
  std::uint64_t shared_pool_bytes = 0;
  /// Shared-buffer admission policy for the receiver ports.
  switchlib::BufferPolicyConfig buffer_policy;
  transport::DctcpConfig transport;
  /// Event-queue backend for the kernel (`sched_queue=` at the CLI). Either
  /// choice produces bit-identical runs; calendar is faster at scale.
  sim::QueueBackend queue = sim::QueueBackend::kHeap;
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

class MultiPortScenario {
 public:
  explicit MultiPortScenario(const MultiPortConfig& config);
  ~MultiPortScenario();
  MultiPortScenario(const MultiPortScenario&) = delete;
  MultiPortScenario& operator=(const MultiPortScenario&) = delete;

  std::size_t add_flow(const MultiPortFlowSpec& spec);

  void run(sim::TimeNs until) { sim_.run(until); }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] switchlib::Port& receiver_port(std::size_t r) {
    return switch_->port(receiver_ports_.at(r));
  }
  [[nodiscard]] switchlib::BufferPool* pool() { return pool_.get(); }
  [[nodiscard]] transport::Flow& flow(std::size_t idx) { return *flows_.at(idx); }

  /// Bytes served from queue q of receiver r's port (monotone).
  [[nodiscard]] std::uint64_t served_bytes(std::size_t r, std::size_t q) const {
    return switch_->port(receiver_ports_.at(r)).scheduler().served_bytes(q);
  }

  // --- Robustness plane ---
  /// Directed links named by endpoints ("sender0" -> "switch", ...).
  [[nodiscard]] const std::vector<faults::LinkRef>& link_refs() const {
    return link_refs_;
  }
  void install_faults(faults::FaultPlan& plan, std::uint64_t seed);
  /// Registers the standard fabric invariants; call after add_flow().
  void install_invariants(faults::InvariantChecker& checker);
  [[nodiscard]] faults::ConservationLedger& ledger() { return ledger_; }
  [[nodiscard]] std::uint64_t total_bytes_acked() const;

 private:
  MultiPortConfig cfg_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<net::Host>> senders_;
  std::vector<std::unique_ptr<net::Host>> receivers_;
  std::unique_ptr<switchlib::Switch> switch_;
  std::unique_ptr<switchlib::BufferPool> pool_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<faults::LinkRef> link_refs_;
  faults::ConservationLedger ledger_;
  faults::FaultPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<transport::Flow>> flows_;
  std::vector<std::size_t> receiver_ports_;
  net::FlowId next_flow_id_ = 1;
};

}  // namespace pmsb::experiments
