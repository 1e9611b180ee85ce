// Figure 1: per-queue marking with the STANDARD threshold inflates RTT as
// the number of active queues grows.
//
// 8 DCTCP flows to one receiver; per-queue K = 16 packets; the flows are
// spread evenly over 1..8 queues. With q active queues the port holds about
// q*K, so RTT grows roughly linearly in q.
#include "bench_common.hpp"
#include "stats/rtt_recorder.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Figure 1 — per-queue marking, standard threshold (K=16 pkts)",
      "8 flows -> 1 receiver, 10G, DWRR, queues swept 1..8",
      "RTT distribution shifts up rapidly with the number of queues");

  stats::Table table({"queues", "rtt_avg(us)", "rtt_p50(us)", "rtt_p95(us)",
                      "rtt_p99(us)", "tput(Gbps)"});
  const sim::TimeNs end = sim::milliseconds(bench::scaled(40, 200));

  for (std::size_t queues = 1; queues <= 8; ++queues) {
    DumbbellConfig cfg;
    cfg.num_senders = 8;
    cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
    cfg.scheduler.num_queues = queues;
    cfg.scheduler.weights.assign(queues, 1.0);
    cfg.marking.kind = ecn::MarkingKind::kPerQueueStandard;
    cfg.marking.threshold_bytes = 16 * 1500;
    cfg.marking.weights = cfg.scheduler.weights;
    DumbbellScenario sc(cfg);

    stats::RttRecorder rtt(sim::milliseconds(5));
    for (std::size_t i = 0; i < 8; ++i) {
      const auto idx = sc.add_flow({.sender = i,
                                    .service = static_cast<net::ServiceId>(i % queues),
                                    .bytes = 0,
                                    .start = 0});
      sc.flow(idx).sender().add_observer(&rtt);
    }
    const auto rates = bench::measure_queue_rates(sc, queues, sim::milliseconds(5), end);
    table.add_row({std::to_string(queues), stats::Table::num(rtt.us().mean()),
                   stats::Table::num(rtt.us().percentile(50)),
                   stats::Table::num(rtt.us().percentile(95)),
                   stats::Table::num(rtt.us().percentile(99)),
                   stats::Table::num(rates.total)});
  }
  table.print();
  return 0;
}
