// Example: a configurable large-scale FCT experiment on the 48-host
// leaf-spine fabric — the command-line face of the paper's §VI.B study.
//
// Usage:
//   leaf_spine_fct [scheme] [scheduler] [load] [flows] [seed]
//     scheme     pmsb | pmsbe | mq-ecn | tcn | perport | perqueue-std |
//                perqueue-frac | none (default pmsb)
//     scheduler  dwrr | wfq | wrr | sp (default dwrr)
//     load       offered load fraction (default 0.5)
//     flows      number of Poisson flows (default 200)
//     seed       workload RNG seed (default 1)
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "sim/rng.hpp"
#include "stats/table.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main(int argc, char** argv) {
  Scheme scheme = Scheme::kPmsb;
  try {
    if (argc > 1) scheme = parse_scheme(argv[1]);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "unknown scheme '%s'\n", argv[1]);
    return 2;
  }
  const auto sched_kind =
      argc > 2 ? sched::parse_scheduler_kind(argv[2]) : sched::SchedulerKind::kDwrr;
  const double load = argc > 3 ? std::atof(argv[3]) : 0.5;
  const std::size_t flows = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 200;
  const std::uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;

  LeafSpineConfig cfg;  // paper topology: 4 leaves x 4 spines x 12 hosts
  cfg.link_delay = sim::microseconds(9);
  cfg.scheduler.kind = sched_kind;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  cfg.buffer_bytes = 2048ull * 1500ull;

  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds_f(85.2);
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(scheme, params);
  cfg.transport.init_cwnd_segments = 16;

  apply_scheme_transport(scheme, params, LeafSpineScenario::base_rtt_interrack(cfg),
                         cfg.transport);

  LeafSpineScenario sc(cfg);
  workload::TrafficConfig tc;
  tc.num_hosts = sc.num_hosts();
  tc.load = load;
  tc.num_flows = flows;
  tc.num_services = 8;
  auto dist = workload::FlowSizeDistribution::paper_mix();
  sim::Rng rng(seed);
  sc.add_workload(workload::generate_poisson_traffic(tc, dist, rng));

  std::printf("scheme=%s scheduler=%s load=%.2f flows=%zu seed=%llu\n",
              scheme_name(scheme).c_str(),
              sched::scheduler_kind_name(sched_kind).c_str(), load, flows,
              static_cast<unsigned long long>(seed));
  const bool done = sc.run_until_complete(sim::seconds(60));
  std::printf("completed %zu/%zu flows in %.1f ms simulated, %llu marks,"
              " %llu drops\n",
              sc.completed_flows(), sc.total_flows(),
              sim::to_milliseconds(sc.simulator().now()),
              static_cast<unsigned long long>(sc.total_marks()),
              static_cast<unsigned long long>(sc.total_drops()));
  if (!done) std::printf("WARNING: simulation hit the time cap\n");

  stats::Table table({"bin", "count", "avg(us)", "p50(us)", "p95(us)", "p99(us)"});
  auto add_bin = [&](const char* name, const stats::Summary& s) {
    table.add_row({name, std::to_string(s.count()), stats::Table::num(s.mean(), 0),
                   stats::Table::num(s.percentile(50), 0),
                   stats::Table::num(s.percentile(95), 0),
                   stats::Table::num(s.percentile(99), 0)});
  };
  add_bin("small(<100KB)", sc.fct().fct_us(stats::SizeBin::kSmall));
  add_bin("medium", sc.fct().fct_us(stats::SizeBin::kMedium));
  add_bin("large(>10MB)", sc.fct().fct_us(stats::SizeBin::kLarge));
  add_bin("overall", sc.fct().overall_fct_us());
  table.print();
  return 0;
}
