// pmsb_inputs — seeded, volume-controlled leaf-spine Poisson flow traces for
// the benchmark's fabric-poisson and regress-sweep workloads.
//
// The benchmark is run on many seeds and its wall time must agree across
// them: the interquartile range of ten seeds' values has to stay inside each
// metric's bound (10%). `pattern=poisson` draws flow sizes from a
// heavy-tailed distribution afresh per seed, so the bytes offered swing with
// the seed: at 500 flows, ten seeds spread 18% in executed events and 17% in
// wall time. This tool keeps everything the library's generator draws from
// the seed (endpoints and services) and replaces only the two volume
// dimensions with stratified sets: flow sizes at the quantiles (k + 0.5) / N
// of the size distribution and gaps at the same quantiles of the
// exponential, both permuted by the seed. Every flow crosses the spine
// layer. Every seed then offers the same bytes over the same span, in a
// different order and placement. pmsbsim replays the result with
// `trace_file=`.
//
// usage: pmsb_inputs seed=S out=PATH [flows=300 load=0.5 workload=paper-mix
//                    queues=8]
// The defaults are pmsbsim's own defaults for the same keys.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/leafspine.hpp"
#include "experiments/options.hpp"
#include "sim/rng.hpp"
#include "workload/flow_trace.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

using namespace pmsb;
using experiments::Options;

namespace {

/// The seed-permuted quantiles (k + 0.5) / n of an exponential with `mean`.
std::vector<double> stratified_gaps(std::size_t n, double mean, sim::Rng& rng) {
  std::vector<double> gaps(n);
  for (std::size_t k = 0; k < n; ++k) {
    gaps[k] = -mean * std::log(1.0 - (static_cast<double>(k) + 0.5) / static_cast<double>(n));
  }
  std::shuffle(gaps.begin(), gaps.end(), rng.engine());
  return gaps;
}

std::vector<workload::FlowSpec> poisson(const Options& opts,
                                        const experiments::LeafSpineConfig& fabric,
                                        sim::Rng& rng) {
  workload::TrafficConfig tc;
  tc.num_hosts = fabric.num_leaves * fabric.hosts_per_leaf;
  // Every flow crosses the spine layer, so each byte costs the same number
  // of hops whatever rack pairs the seed picks.
  tc.rack_local_allowed = false;
  tc.hosts_per_rack = fabric.hosts_per_leaf;
  tc.load = opts.get_double("load", 0.5);
  tc.num_flows = static_cast<std::size_t>(opts.get_int("flows", 300));
  tc.num_services = static_cast<std::uint8_t>(opts.get_int("queues", 8));
  const auto dist = workload::FlowSizeDistribution::by_name(opts.get("workload", "paper-mix"));
  std::vector<workload::FlowSpec> flows = workload::generate_poisson_traffic(tc, dist, rng);

  sim::Rng permute = rng.fork("perf.permute");
  const std::size_t n = flows.size();
  std::vector<std::uint64_t> sizes(n);
  for (std::size_t k = 0; k < n; ++k) {
    sizes[k] = dist.quantile((static_cast<double>(k) + 0.5) / static_cast<double>(n));
  }
  std::shuffle(sizes.begin(), sizes.end(), permute.engine());
  const std::vector<double> gaps =
      stratified_gaps(n, 1e9 / workload::poisson_arrival_rate(tc, dist), permute);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i];
    flows[i].start = static_cast<sim::TimeNs>(t);
    flows[i].bytes = sizes[i];
  }
  return flows;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = Options::from_args(argc, argv);
    opts.validate_keys({"seed", "out", "flows", "load", "workload", "queues"});
    if (!opts.has("out")) throw std::invalid_argument("out= is required");
    const experiments::LeafSpineConfig fabric;
    sim::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
    workload::write_flow_trace(opts.get("out"), fabric.num_leaves * fabric.hosts_per_leaf,
                               poisson(opts, fabric, rng));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmsb_inputs: %s\n", e.what());
    return 2;
  }
}
