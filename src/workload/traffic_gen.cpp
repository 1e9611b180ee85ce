#include "workload/traffic_gen.hpp"

#include <stdexcept>

namespace pmsb::workload {

namespace {
constexpr sim::RateBps kEdgeRate = sim::gbps(10);  ///< every host's link rate
}  // namespace

double poisson_arrival_rate(const TrafficConfig& cfg, const FlowSizeDistribution& dist) {
  const double aggregate_bps =
      cfg.load * static_cast<double>(cfg.num_hosts) * static_cast<double>(kEdgeRate);
  return aggregate_bps / (8.0 * dist.mean_bytes());
}

std::vector<FlowSpec> generate_poisson_traffic(const TrafficConfig& cfg,
                                               const FlowSizeDistribution& dist,
                                               sim::Rng& rng) {
  if (cfg.num_hosts < 2) throw std::invalid_argument("traffic: need >= 2 hosts");
  if (cfg.load <= 0.0) throw std::invalid_argument("traffic: load must be > 0");

  const double rate_per_sec = poisson_arrival_rate(cfg, dist);
  const double mean_interarrival_ns = 1e9 / rate_per_sec;

  // Named sub-streams per draw dimension: a change to how one dimension
  // samples (or a new family forked off the same seed) leaves the others'
  // sequences untouched. Pinned by the digest-identity test in
  // test_workload.cpp — do not reorder or rename.
  sim::Rng arrival = rng.fork("poisson.arrival");
  sim::Rng size = rng.fork("poisson.size");
  sim::Rng endpoints = rng.fork("poisson.endpoints");

  std::vector<FlowSpec> flows;
  flows.reserve(cfg.num_flows);
  double t = 0.0;
  for (std::size_t i = 0; i < cfg.num_flows; ++i) {
    t += arrival.exponential(mean_interarrival_ns);
    FlowSpec spec;
    spec.start = static_cast<sim::TimeNs>(t);
    spec.bytes = dist.sample(size);
    spec.service = static_cast<net::ServiceId>(i % cfg.num_services);
    spec.src = static_cast<net::HostId>(
        endpoints.uniform_int(0, static_cast<std::int64_t>(cfg.num_hosts) - 1));
    do {
      spec.dst = static_cast<net::HostId>(
          endpoints.uniform_int(0, static_cast<std::int64_t>(cfg.num_hosts) - 1));
    } while (spec.dst == spec.src ||
             (!cfg.rack_local_allowed &&
              spec.dst / cfg.hosts_per_rack == spec.src / cfg.hosts_per_rack));
    flows.push_back(spec);
  }
  return flows;
}

}  // namespace pmsb::workload
