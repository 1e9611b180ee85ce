// Extension bench: PMSB's small-flow advantage across workload shapes.
//
// The paper evaluates one "realistic workload" mix; here the same DWRR
// leaf-spine experiment runs under the web-search and data-mining CDFs used
// throughout the DCTCP/MQ-ECN/TCN literature, confirming the ranking is not
// an artifact of the particular flow-size distribution.
#include "fct_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
bench::FctResult run_dist(Scheme scheme, const workload::FlowSizeDistribution& dist,
                          std::size_t flows) {
  LeafSpineConfig cfg;
  cfg.link_delay = sim::microseconds(9);
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  cfg.buffer_bytes = 2048ull * 1500ull;
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = scheme == Scheme::kPmsb || scheme == Scheme::kPmsbE
                   ? sim::microseconds_f(85.2)
                   : sim::microseconds(78);
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(scheme, params);
  cfg.transport.init_cwnd_segments = 16;
  apply_scheme_transport(scheme, params, LeafSpineScenario::base_rtt_interrack(cfg),
                         cfg.transport);

  LeafSpineScenario sc(cfg);
  workload::TrafficConfig tc;
  tc.num_hosts = sc.num_hosts();
  tc.load = 0.7;
  tc.num_flows = flows;
  tc.num_services = 8;
  sim::Rng rng(99);
  sc.add_workload(workload::generate_poisson_traffic(tc, dist, rng));
  sc.run_until_complete(sim::seconds(30));

  bench::FctResult out;
  out.flows = sc.fct().count();
  out.overall_avg = sc.fct().overall_fct_us().mean();
  const auto small = sc.fct().fct_us(stats::SizeBin::kSmall);
  out.small_avg = small.mean();
  out.small_p99 = small.percentile(99);
  return out;
}
}  // namespace

int main() {
  bench::print_header(
      "Extension — workload-shape robustness (DWRR, load 0.7)",
      "48-host leaf-spine; web-search and data-mining CDFs; PMSB vs MQ-ECN"
      " vs TCN",
      "PMSB's small-flow advantage holds on both distributions");

  const std::size_t flows = bench::scaled(250, 1500);
  stats::Table table({"workload", "scheme", "small_avg(us)", "small_p99(us)",
                      "overall_avg(us)"}, 15);
  for (const auto* name : {"web-search", "data-mining"}) {
    const auto dist = workload::FlowSizeDistribution::by_name(name);
    for (Scheme scheme : {Scheme::kPmsb, Scheme::kMqEcn, Scheme::kTcn}) {
      const auto r = run_dist(scheme, dist, flows);
      table.add_row({name, scheme_name(scheme), stats::Table::num(r.small_avg, 0),
                     stats::Table::num(r.small_p99, 0),
                     stats::Table::num(r.overall_avg, 0)});
    }
  }
  table.print();
  return 0;
}
