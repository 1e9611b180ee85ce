// Figure 9: RTT distribution of the queue-2 flows in the 1-vs-4 setting
// under PMSB, PMSB(e), MQ-ECN, TCN and per-queue standard marking.
//
// Paper: PMSB achieves ~63% lower average/99th RTT than per-queue standard;
// PMSB(e) ~56% lower.
#include "bench_common.hpp"
#include "stats/rtt_recorder.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

stats::Summary run_scheme(Scheme scheme, sim::TimeNs end) {
  DumbbellConfig cfg;
  cfg.num_senders = 5;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds(18);  // loaded RTT of this topology
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(scheme, params);
  DumbbellScenario sc(cfg);
  apply_scheme_transport(scheme, params, sc.base_rtt(), cfg.transport);

  const bool pmsbe = cfg.transport.pmsbe_enabled;
  const sim::TimeNs thr = cfg.transport.pmsbe_rtt_threshold;
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
               .pmsbe = pmsbe, .pmsbe_rtt_threshold = thr});
  stats::RttRecorder rtt(sim::milliseconds(5));
  for (std::size_t i = 1; i <= 4; ++i) {
    const auto idx = sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0,
                                  .pmsbe = pmsbe, .pmsbe_rtt_threshold = thr});
    sc.flow(idx).sender().add_observer(&rtt);
  }
  sc.run(end);
  return rtt.us();
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 9 — RTT distribution of queue-2 flows (1 vs 4 setting)",
      "2 DWRR queues 1:1, 10G; PMSB/PMSB(e) port K=12 pkts, MQ-ECN std K,"
      " TCN T_k=RTT",
      "PMSB ~63% and PMSB(e) ~56% lower avg/p99 RTT than per-queue standard");

  const sim::TimeNs end = sim::milliseconds(bench::scaled(40, 200));
  stats::Table table({"scheme", "rtt_avg(us)", "rtt_p50(us)", "rtt_p99(us)"});
  double perqueue_avg = 0.0, perqueue_p99 = 0.0;
  struct Row {
    Scheme scheme;
    const char* label;
  };
  for (const auto& row : {Row{Scheme::kPerQueueStd, "PerQueue-Std"},
                          Row{Scheme::kMqEcn, "MQ-ECN"},
                          Row{Scheme::kTcn, "TCN"},
                          Row{Scheme::kPmsb, "PMSB"},
                          Row{Scheme::kPmsbE, "PMSB(e)"}}) {
    const auto rtt = run_scheme(row.scheme, end);
    if (row.scheme == Scheme::kPerQueueStd) {
      perqueue_avg = rtt.mean();
      perqueue_p99 = rtt.percentile(99);
    }
    table.add_row({row.label, stats::Table::num(rtt.mean()),
                   stats::Table::num(rtt.percentile(50)),
                   stats::Table::num(rtt.percentile(99))});
    if (row.scheme == Scheme::kPmsb || row.scheme == Scheme::kPmsbE) {
      std::printf("%s vs PerQueue-Std: avg -%.1f%%, p99 -%.1f%%\n", row.label,
                  (perqueue_avg - rtt.mean()) / perqueue_avg * 100.0,
                  (perqueue_p99 - rtt.percentile(99)) / perqueue_p99 * 100.0);
    }
  }
  table.print();
  return 0;
}
