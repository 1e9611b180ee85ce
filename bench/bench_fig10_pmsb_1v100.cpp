// Figure 10: PMSB holds weighted fair sharing even under heavy traffic —
// queue 1 with a single flow against queue 2 with one hundred flows.
#include "bench_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Figure 10 — PMSB, DWRR, port K=12 pkts, 1 flow vs 100 flows",
      "2 DWRR queues 1:1, 10G, 101 senders",
      "both queues stay at ~5 Gbps despite the 1:100 flow imbalance");

  const std::size_t n = bench::scaled(100, 100);
  DumbbellConfig cfg;
  cfg.num_senders = n + 1;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  cfg.buffer_bytes = 4096ull * 1500ull;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  for (std::size_t i = 1; i <= n; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
  }

  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  const auto rates = bench::measure_queue_rates(sc, sim::milliseconds(10), end);
  stats::Table table({"queue", "flows", "tput(Gbps)", "share(%)"});
  table.add_row({"1", "1", stats::Table::num(rates.gbps[0]),
                 stats::Table::num(rates.gbps[0] / rates.total * 100.0, 1)});
  table.add_row({"2", std::to_string(n), stats::Table::num(rates.gbps[1]),
                 stats::Table::num(rates.gbps[1] / rates.total * 100.0, 1)});
  table.print();
  std::printf("total: %.2f Gbps, drops: %llu\n", rates.total,
              static_cast<unsigned long long>(sc.bottleneck().stats().dropped_packets));
  return 0;
}
