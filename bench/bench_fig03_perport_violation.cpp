// Figure 3: plain per-port marking violates weighted fair sharing.
//
// Two DWRR queues with equal weights; queue 1 carries one flow, queue 2
// carries eight. Per-port K=16 packets marks the lone flow because of the
// other queue's buffer, so it backs off far below its fair 5 Gbps
// (paper: ~2.49 vs ~7.51 Gbps).
#include "bench_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Figure 3 — per-port marking (K=16 pkts), 1 flow vs 8 flows",
      "2 DWRR queues 1:1, 10G; queue1: 1 flow, queue2: 8 flows",
      "victim queue1 collapses to ~2.5G while queue2 takes ~7.5G");

  DumbbellConfig cfg;
  cfg.num_senders = 9;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  for (std::size_t i = 1; i <= 8; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
  }

  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  const auto rates = bench::measure_queue_rates(sc, sim::milliseconds(10), end);

  stats::Table table({"queue", "flows", "tput(Gbps)", "fair_share(Gbps)"});
  table.add_row({"1", "1", stats::Table::num(rates.gbps[0]), "5.00"});
  table.add_row({"2", "8", stats::Table::num(rates.gbps[1]), "5.00"});
  table.print();
  std::printf("total: %.2f Gbps; queue1 share: %.1f%% (fair would be 50%%)\n",
              rates.total, rates.gbps[0] / rates.total * 100.0);
  return 0;
}
