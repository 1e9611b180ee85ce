// The standard fabric invariants, packaged as InvariantChecker checks.
//
// Header-only on purpose: these helpers reach into switchlib and transport
// accessors, and pmsb_faults links only net/sim/telemetry. Everything here
// is inline reads of existing counters, so including this header creates no
// library-level dependency cycle.
//
// Invariants provided:
//  - switch port accounting: enqueued == dequeued + buffered; port byte
//    backlog == sum of per-queue backlogs; drop reasons sum to the drop
//    total; CE marks never exceed admitted packets
//  - packet conservation: every packet handed to a Host is, at any instant
//    between events, in exactly one of {delivered, dropped (port or fault),
//    NIC backlog, link flight, port buffer, fault delay stage} — the ledger
//    sums all of them and demands exact equality
//  - flow liveness: a started, incomplete flow with bytes in flight must
//    have its retransmission timer armed (otherwise it can never finish);
//    the caller picks which senders to test (experiments::Fabric tests only
//    the flows that can have bytes in flight)
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "switchlib/switch.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::faults {

/// Per-port accounting checks for every port of `sw`. The switch must
/// outlive the checker.
inline void add_switch_checks(InvariantChecker& checker, switchlib::Switch& sw) {
  checker.add_check("port_accounting", [&sw](InvariantChecker::Context& ctx) {
    for (std::size_t i = 0; i < sw.num_ports(); ++i) {
      const switchlib::Port& port = sw.port(i);
      const switchlib::PortStats& stats = port.stats();
      // Named only on a violation: a clean tick builds no strings.
      const auto entity = [&sw, i] { return sw.name() + " port " + std::to_string(i); };

      if (stats.enqueued_packets !=
          stats.dequeued_packets + port.buffered_packets()) {
        std::ostringstream why;
        why << "enqueued=" << stats.enqueued_packets
            << " != dequeued=" << stats.dequeued_packets
            << " + buffered=" << port.buffered_packets();
        ctx.violate(entity(), why.str());
      }

      std::uint64_t queue_sum = 0;
      for (std::size_t q = 0; q < port.scheduler().num_queues(); ++q) {
        queue_sum += port.queue_bytes(q);
      }
      if (queue_sum != port.buffered_bytes()) {
        std::ostringstream why;
        why << "port backlog " << port.buffered_bytes()
            << "B != sum of queue backlogs " << queue_sum << "B";
        ctx.violate(entity(), why.str());
      }

      std::uint64_t reason_sum = 0;
      for (const std::uint64_t n : stats.dropped_by_reason) reason_sum += n;
      if (reason_sum != stats.dropped_packets) {
        std::ostringstream why;
        why << "drop reasons sum to " << reason_sum << " but dropped_packets="
            << stats.dropped_packets;
        ctx.violate(entity(), why.str());
      }

      if (stats.marked_enqueue + stats.marked_dequeue > stats.enqueued_packets) {
        std::ostringstream why;
        why << "CE marks " << (stats.marked_enqueue + stats.marked_dequeue)
            << " exceed admitted packets " << stats.enqueued_packets;
        ctx.violate(entity(), why.str());
      }
    }
  });
}

/// The global packet-conservation ledger. Register every entity that can
/// hold or terminate a packet, then call register_check(). All registered
/// entities must outlive the checker.
class ConservationLedger {
 public:
  void add_host(const net::Host* host) { hosts_.push_back(host); }
  void add_switch(const switchlib::Switch* sw) { switches_.push_back(sw); }
  void add_link(const net::Link* link) { links_.push_back(link); }
  void set_fault_plan(const FaultPlan* plan) { plan_ = plan; }
  /// Test-only: a constant offset added to the injected side, used to
  /// deliberately break the invariant and prove the checker catches it.
  void skew_injected_for_test(std::uint64_t skew) { test_skew_ = skew; }

  [[nodiscard]] std::uint64_t injected() const {
    std::uint64_t n = test_skew_;
    for (const net::Host* host : hosts_) n += host->sent_packets();
    return n;
  }

  void register_check(InvariantChecker& checker) const {
    checker.add_check("packet_conservation", [this](InvariantChecker::Context& ctx) {
      std::uint64_t delivered = 0;
      std::uint64_t dropped = 0;
      std::uint64_t in_flight = 0;
      for (const net::Host* host : hosts_) {
        delivered += host->delivered_packets() + host->dropped_no_handler();
        in_flight += host->nic_backlog_packets();
      }
      for (const switchlib::Switch* sw : switches_) {
        for (std::size_t i = 0; i < sw->num_ports(); ++i) {
          dropped += sw->port(i).stats().dropped_packets;
          in_flight += sw->port(i).buffered_packets();
        }
      }
      for (const net::Link* link : links_) in_flight += link->packets_in_flight();
      if (plan_ != nullptr) {
        dropped += plan_->dropped();
        in_flight += plan_->delayed_in_flight();
      }
      const std::uint64_t sent = injected();
      if (sent != delivered + dropped + in_flight) {
        std::ostringstream why;
        why << "injected=" << sent << " != delivered=" << delivered
            << " + dropped=" << dropped << " + in_flight=" << in_flight
            << " (sum " << (delivered + dropped + in_flight) << ")";
        ctx.violate("fabric", why.str());
      }
    });
  }

 private:
  std::vector<const net::Host*> hosts_;
  std::vector<const switchlib::Switch*> switches_;
  std::vector<const net::Link*> links_;
  const FaultPlan* plan_ = nullptr;
  std::uint64_t test_skew_ = 0;
};

/// Flow liveness for one sender: a started, incomplete flow with bytes in
/// flight must hold an armed retransmission timer, otherwise a lost tail
/// would hang the run.
inline void check_flow_liveness(InvariantChecker::Context& ctx,
                                const transport::DctcpSender& sender) {
  if (sender.started() && !sender.complete() && sender.bytes_inflight() > 0 &&
      !sender.rto_armed()) {
    std::ostringstream why;
    why << "inflight=" << sender.bytes_inflight() << "B acked=" << sender.bytes_acked()
        << "B but RTO timer not armed";
    ctx.violate("flow " + std::to_string(sender.flow_id()), why.str());
  }
}

}  // namespace pmsb::faults
