// Figures 6 & 7: raising the per-port threshold to 65 packets restores
// fairness for 1-vs-8 flows (few marks, victims back off rarely) — but the
// fix does not scale: at 1-vs-40 flows the stable buffer exceeds any fixed
// threshold and the violation returns.
#include "bench_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
bench::QueueRates run_one_vs_n(std::size_t n, sim::TimeNs end) {
  DumbbellConfig cfg;
  cfg.num_senders = n + 1;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 65 * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  cfg.buffer_bytes = 4096ull * 1500ull;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  for (std::size_t i = 1; i <= n; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
  }
  return bench::measure_queue_rates(sc, sim::milliseconds(10), end);
}
}  // namespace

int main() {
  bench::print_header(
      "Figures 6 & 7 — per-port marking with K=65 pkts",
      "2 DWRR queues 1:1, 10G; 1 vs 8 flows, then 1 vs 40 flows",
      "1:8 recovers ~50/50; 1:40 violates fairness again");

  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  stats::Table table({"setup", "q1(Gbps)", "q2(Gbps)", "q1_share(%)"});
  const auto r8 = run_one_vs_n(8, end);
  table.add_row({"1 vs 8 (Fig. 6)", stats::Table::num(r8.gbps[0]),
                 stats::Table::num(r8.gbps[1]),
                 stats::Table::num(r8.gbps[0] / r8.total * 100.0, 1)});
  const auto r40 = run_one_vs_n(40, end);
  table.add_row({"1 vs 40 (Fig. 7)", stats::Table::num(r40.gbps[0]),
                 stats::Table::num(r40.gbps[1]),
                 stats::Table::num(r40.gbps[0] / r40.total * 100.0, 1)});
  table.print();
  return 0;
}
