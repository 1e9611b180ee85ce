// Figures 22-27: large-scale leaf-spine FCT with the WFQ scheduler.
//
// Same setup as Figs. 16-21 but scheduling with WFQ — the generic scheduler
// MQ-ECN cannot drive, so the comparison is PMSB / PMSB(e) / TCN only
// (paper Table I and §VI.B).
//
// Paper headline (WFQ): PMSB reduces small-flow 95th/99th/avg FCT vs TCN by
// up to 67.6%/72.9%/64.5%; PMSB(e) by up to ~23-26%.
#include "fct_common.hpp"

using namespace pmsb;

int main() {
  bench::print_header(
      "Figures 22-27 — large-scale FCT, WFQ scheduler",
      "48-host 4x4 leaf-spine, 10G, DCTCP IW=16, paper-mix Poisson workload;"
      " MQ-ECN excluded (no rounds on WFQ)",
      "PMSB/PMSB(e) cut small-flow tail FCT vs TCN; overall/large within ~2%");

  bench::FctGrid grid = bench::run_fct_figure("wfq", {"pmsb", "pmsbe", "tcn"});

  auto reduction = [&grid](const char* ours, const char* key) {
    return bench::mean_reduction_pct(grid, ours, "tcn", key);
  };
  std::printf("\nsmall-flow FCT reductions vs TCN (mean over loads):\n");
  std::printf("  PMSB   : avg %.1f%%, p95 %.1f%%, p99 %.1f%%\n",
              reduction("pmsb", "fct_us.small.mean"),
              reduction("pmsb", "fct_us.small.p95"),
              reduction("pmsb", "fct_us.small.p99"));
  std::printf("  PMSB(e): avg %.1f%%, p95 %.1f%%, p99 %.1f%%\n",
              reduction("pmsbe", "fct_us.small.mean"),
              reduction("pmsbe", "fct_us.small.p95"),
              reduction("pmsbe", "fct_us.small.p99"));
  std::printf("  (paper: PMSB up to 67.6%%/72.9%%/64.5%% at best load)\n");
  return 0;
}
