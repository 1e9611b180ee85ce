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
#include "fct_common.hpp"

using namespace pmsb;

int main() {
  bench::print_header(
      "Figures 16-21 — large-scale FCT, DWRR scheduler",
      "48-host 4x4 leaf-spine, 10G, DCTCP IW=16, paper-mix Poisson workload",
      "PMSB/PMSB(e) cut small-flow tail FCT vs MQ-ECN and TCN; overall and"
      " large-flow FCT stay within a few percent");

  bench::FctFigure fig =
      bench::run_fct_figure("dwrr", {"pmsb", "pmsbe", "mq-ecn", "tcn"});

  // Headline reductions for small flows, averaged over loads.
  auto reduction = [&fig](const char* ours, const char* base, const char* key) {
    return bench::mean_reduction_pct(fig.grid, ours, base, key);
  };
  std::printf("\nsmall-flow FCT reductions (mean over loads):\n");
  std::printf("  PMSB    vs TCN   : avg %.1f%%, p99 %.1f%%\n",
              reduction("pmsb", "tcn", "fct_us.small.mean"),
              reduction("pmsb", "tcn", "fct_us.small.p99"));
  std::printf("  PMSB    vs MQ-ECN: avg %.1f%%, p99 %.1f%%\n",
              reduction("pmsb", "mq-ecn", "fct_us.small.mean"),
              reduction("pmsb", "mq-ecn", "fct_us.small.p99"));
  std::printf("  PMSB(e) vs MQ-ECN: avg %.1f%%, p99 %.1f%%\n",
              reduction("pmsbe", "mq-ecn", "fct_us.small.mean"),
              reduction("pmsbe", "mq-ecn", "fct_us.small.p99"));
  std::printf("  (paper: PMSB vs MQ-ECN 40.0%%/41.2%%; PMSB(e) vs MQ-ECN"
              " 25.0%%/25.8%%)\n");
  return fig.failed_runs == 0 ? 0 : 1;
}
