// Figures 16-21: large-scale leaf-spine FCT with the DWRR scheduler.
//
// 48 hosts, 4x4 leaf-spine, DCTCP IW=16, Poisson arrivals of the paper-mix
// workload (60% small / 10% large), loads swept. Schemes: PMSB, PMSB(e),
// MQ-ECN, TCN. Six metrics per cell, matching the paper's six panels:
//   Fig 16: overall average   Fig 17: large avg    Fig 18: large 99th
//   Fig 19: small avg         Fig 20: small 95th   Fig 21: small 99th
//
// Paper headline (DWRR): PMSB reduces small-flow avg/99th FCT vs MQ-ECN by
// ~40%/41%; PMSB(e) by ~25%/26%; vs TCN by ~49-50%.
#include <map>

#include "fct_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Figures 16-21 — large-scale FCT, DWRR scheduler",
      "48-host 4x4 leaf-spine, 10G, DCTCP IW=16, paper-mix Poisson workload",
      "PMSB/PMSB(e) cut small-flow tail FCT vs MQ-ECN and TCN; overall and"
      " large-flow FCT stay within a few percent");

  const std::vector<Scheme> schemes = {Scheme::kPmsb, Scheme::kPmsbE, Scheme::kMqEcn,
                                       Scheme::kTcn};
  const auto loads = bench::default_loads();
  const std::size_t flows = bench::scaled(300, 2000);

  // Build the full (load, scheme, seed) grid up front and fan it across the
  // sweep worker pool: each run is an isolated single-threaded simulator, and
  // results come back in input order, so the aggregated figures are
  // bit-identical for any PMSB_BENCH_JOBS.
  const auto seeds = bench::default_seeds();
  std::vector<bench::FctRunConfig> cells;
  for (double load : loads) {
    for (Scheme scheme : schemes) {
      for (std::uint64_t seed : seeds) {
        bench::FctRunConfig rc;
        rc.scheme = scheme;
        rc.scheduler = sched::SchedulerKind::kDwrr;
        rc.load = load;
        rc.num_flows = flows;
        rc.seed = seed;
        cells.push_back(rc);
      }
    }
  }
  const std::size_t jobs = bench::bench_jobs();
  bench::announce_grid(cells.size(), jobs);
  const auto runs = bench::run_fct_grid(cells, jobs);

  stats::Table table({"load", "scheme", "overall_avg", "large_avg", "large_p99",
                      "small_avg", "small_p95", "small_p99"},
                     12);
  std::map<std::pair<double, Scheme>, bench::FctResult> results;
  std::size_t next = 0;
  for (double load : loads) {
    for (Scheme scheme : schemes) {
      const std::vector<bench::FctResult> cell(runs.begin() + next,
                                               runs.begin() + next + seeds.size());
      next += seeds.size();
      const auto r = bench::aggregate_fct_cell(cell);
      results[{load, scheme}] = r;
      table.add_row({stats::Table::num(load, 1), scheme_name(scheme),
                     stats::Table::num(r.overall_avg, 0),
                     stats::Table::num(r.large_avg, 0),
                     stats::Table::num(r.large_p99, 0),
                     stats::Table::num(r.small_avg, 0),
                     stats::Table::num(r.small_p95, 0),
                     stats::Table::num(r.small_p99, 0)});
    }
  }
  std::printf("(all FCTs in microseconds)\n");
  table.print();

  // Headline reductions for small flows, averaged over loads.
  auto reduction = [&](Scheme ours, Scheme base, double bench::FctResult::*field) {
    double sum = 0;
    for (double load : loads) {
      const double b = results[{load, base}].*field;
      const double o = results[{load, ours}].*field;
      sum += (b - o) / b * 100.0;
    }
    return sum / static_cast<double>(loads.size());
  };
  std::printf("\nsmall-flow FCT reductions (mean over loads):\n");
  std::printf("  PMSB    vs TCN   : avg %.1f%%, p99 %.1f%%\n",
              reduction(Scheme::kPmsb, Scheme::kTcn, &bench::FctResult::small_avg),
              reduction(Scheme::kPmsb, Scheme::kTcn, &bench::FctResult::small_p99));
  std::printf("  PMSB    vs MQ-ECN: avg %.1f%%, p99 %.1f%%\n",
              reduction(Scheme::kPmsb, Scheme::kMqEcn, &bench::FctResult::small_avg),
              reduction(Scheme::kPmsb, Scheme::kMqEcn, &bench::FctResult::small_p99));
  std::printf("  PMSB(e) vs MQ-ECN: avg %.1f%%, p99 %.1f%%\n",
              reduction(Scheme::kPmsbE, Scheme::kMqEcn, &bench::FctResult::small_avg),
              reduction(Scheme::kPmsbE, Scheme::kMqEcn, &bench::FctResult::small_p99));
  std::printf("  (paper: PMSB vs MQ-ECN 40.0%%/41.2%%; PMSB(e) vs MQ-ECN"
              " 25.0%%/25.8%%)\n");
  return 0;
}
