// Ablation: PMSB per-queue filter aggressiveness (§III's trade-off).
//
// filter_scale scales the Eq. 6 per-queue threshold. Small values accept
// more marks (false positives -> fairness erodes toward plain per-port);
// large values refuse more marks (false negatives -> the congested queue's
// latency grows). The paper argues scale 1.0 with a small-probability
// false positive is the right operating point.
#include "bench_common.hpp"
#include "stats/rtt_recorder.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Ablation — PMSB filter threshold scale (false pos./neg. trade-off)",
      "1 flow vs 8 flows, 2 DWRR queues 1:1, port K=12 pkts, scale swept",
      "small scale -> fairness erodes; large scale -> congested-queue RTT"
      " grows; 1.0 balances both");

  stats::Table table({"filter_scale", "q1_share(%)", "q2_rtt_avg(us)",
                      "q2_rtt_p99(us)", "tput(Gbps)"});
  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  for (double scale : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    DumbbellConfig cfg;
    cfg.num_senders = 9;
    cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
    cfg.scheduler.num_queues = 2;
    cfg.scheduler.weights = {1.0, 1.0};
    cfg.marking.kind = ecn::MarkingKind::kPmsb;
    cfg.marking.threshold_bytes = 12 * 1500;
    cfg.marking.weights = cfg.scheduler.weights;
    cfg.marking.filter_scale = scale;
    cfg.buffer_bytes = 4096ull * 1500ull;
    DumbbellScenario sc(cfg);
    sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
    stats::RttRecorder rtt(sim::milliseconds(10));
    for (std::size_t i = 1; i <= 8; ++i) {
      const auto idx = sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
      sc.flow(idx).sender().add_observer(&rtt);
    }
    const auto rates = bench::measure_queue_rates(sc, 2, sim::milliseconds(10), end);
    table.add_row({stats::Table::num(scale, 2),
                   stats::Table::num(rates.gbps[0] / rates.total * 100.0, 1),
                   stats::Table::num(rtt.us().mean(), 1),
                   stats::Table::num(rtt.us().percentile(99), 1),
                   stats::Table::num(rates.total)});
  }
  table.print();
  std::printf("scale 0.0 degenerates to plain per-port marking (Fig. 3's"
              " violation); very large scales approach no-marking latency.\n");
  return 0;
}
