// Poisson traffic generation (§VI.B).
//
// Flow arrivals form a Poisson process whose rate is chosen so that the
// offered load equals `load` × the aggregate edge capacity, 10 Gbps per host:
//     lambda = load * num_hosts * 10 Gbps / (8 * mean_flow_size)
// Source and destination hosts are drawn uniformly (src != dst), and flows
// are classified round-robin into `num_services` services — the paper's
// "48x47 communications classified into 8 services evenly".
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"
#include "stats/fct.hpp"
#include "workload/size_dist.hpp"

namespace pmsb::workload {

struct FlowSpec {
  net::HostId src = 0;
  net::HostId dst = 0;
  net::ServiceId service = 0;
  std::uint64_t bytes = 0;
  sim::TimeNs start = 0;
  /// Absolute completion deadline (D2TCP); 0 = none.
  sim::TimeNs deadline = 0;
  /// Which workload family produced this flow; lands in FCT records.
  stats::PatternTag pattern = stats::PatternTag::kPoisson;
  /// Coflow/RPC group id; stats::kNoGroupId = standalone flow.
  std::uint32_t group = stats::kNoGroupId;
  /// Coflow stage index. Stage > 0 flows start only once every stage-1
  /// flow of their group has completed (the shuffle barrier).
  std::uint16_t stage = 0;
};

struct TrafficConfig {
  std::size_t num_hosts = 48;
  double load = 0.5;                      ///< fraction of aggregate edge capacity
  std::size_t num_flows = 1000;
  std::uint8_t num_services = 8;
  bool rack_local_allowed = true;         ///< if false, src and dst differ by rack
  std::size_t hosts_per_rack = 12;        ///< used when rack_local_allowed == false
};

/// Generates `cfg.num_flows` flow specs, arriving from time 0. Deterministic
/// given `rng`'s seed. Arrival times, flow sizes, and endpoint choices draw
/// from independent named sub-streams forked off `rng` ("poisson.arrival" /
/// "poisson.size" / "poisson.endpoints"), so adding a draw to one dimension
/// — or adding a new workload family sharing the seed — cannot perturb the
/// others. `rng` itself is not advanced.
std::vector<FlowSpec> generate_poisson_traffic(const TrafficConfig& cfg,
                                               const FlowSizeDistribution& dist,
                                               sim::Rng& rng);

/// The Poisson arrival rate (flows/second) implied by a traffic config.
double poisson_arrival_rate(const TrafficConfig& cfg, const FlowSizeDistribution& dist);

}  // namespace pmsb::workload
