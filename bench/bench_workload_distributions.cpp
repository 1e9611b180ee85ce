// Extension bench: PMSB's small-flow advantage across workload shapes.
//
// The paper evaluates one "realistic workload" mix; here the same DWRR
// leaf-spine experiment runs under the web-search and data-mining CDFs used
// throughout the DCTCP/MQ-ECN/TCN literature, confirming the ranking is not
// an artifact of the particular flow-size distribution. Each cell is a
// pmsbsim leaf-spine point run on the sweep's worker pool; MQ-ECN and TCN
// take the paper's 78 us standard RTT, PMSB the leaf-spine's 85.2 us.
#include <cstdio>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

using namespace pmsb;

int main() {
  bench::print_header(
      "Extension — workload-shape robustness (DWRR, load 0.7)",
      "48-host leaf-spine; web-search and data-mining CDFs; PMSB vs MQ-ECN"
      " vs TCN",
      "PMSB's small-flow advantage holds on both distributions");

  experiments::Options base;
  base.set("topology", "leafspine");
  base.set("load", "0.7");
  base.set("flows", std::to_string(bench::scaled(250, 1500)));
  base.set("seed", "99");
  auto points =
      sweep::expand_grid(base, "workload:web-search,data-mining;scheme:pmsb,mq-ecn,tcn");
  for (sweep::SweepPoint& p : points) {
    if (p.opts.get("scheme") != "pmsb") p.opts.set("rtt_us", "78");
  }
  sweep::SweepConfig cfg;
  cfg.jobs = bench::bench_jobs();
  const auto records = sweep::run_sweep(points, cfg);

  stats::Table table({"workload", "scheme", "small_avg(us)", "small_p99(us)",
                      "overall_avg(us)"}, 15);
  for (const sweep::RunRecord& r : records) {
    if (!r.ok) {
      std::fprintf(stderr, "FAILED [%zu] %s: %s\n", r.index, r.label.c_str(),
                   r.error.c_str());
      return 1;
    }
    table.add_row({r.info.at("workload"), r.info.at("scheme"),
                   stats::Table::num(r.results.at("fct_us.small.mean"), 0),
                   stats::Table::num(r.results.at("fct_us.small.p99"), 0),
                   stats::Table::num(r.results.at("fct_us.overall.mean"), 0)});
  }
  table.print();
  return 0;
}
