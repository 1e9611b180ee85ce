// Ablation: empirical check of Theorem IV.1.
//
// The theorem says a queue's marking threshold must exceed
// gamma * C * RTT / 7 or the queue underflows and throughput is lost. We
// sweep the threshold as a multiple of the bound with the worst-case flow
// count (Eq. 11) and measure link utilisation: below ~1x the utilisation
// drops, above it the link stays full.
#include "bench_common.hpp"
#include "core/thresholds.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Ablation — Theorem IV.1 threshold lower bound",
      "1 queue, per-queue marking, threshold swept around gamma*C*RTT/7,"
      " worst-case flow count from Eq. 11",
      "utilisation loss below the bound, full utilisation above it");

  DumbbellConfig base;
  base.num_senders = 1;  // overwritten below
  base.scheduler.kind = sched::SchedulerKind::kFifo;
  base.scheduler.num_queues = 1;

  // The steady-state model's RTT at the operating point (base RTT plus the
  // queueing delay of a threshold-deep buffer).
  DumbbellScenario probe(base);
  const sim::TimeNs rtt = probe.base_rtt() + sim::microseconds(8);
  const double bound =
      core::theorem41_min_queue_threshold_bytes(base.link_rate, rtt, 1.0, 1.0);

  stats::Table table({"k / bound", "k(pkts)", "flows(Eq.11)", "tput(Gbps)",
                      "utilisation(%)"});
  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  for (double factor : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}) {
    const auto k_bytes = static_cast<std::uint64_t>(bound * factor);
    const double cxrtt = static_cast<double>(sim::bdp_bytes(base.link_rate, rtt));
    const std::size_t flows = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               core::worst_case_flow_count(1.0, cxrtt, static_cast<double>(k_bytes),
                                           1500.0)));
    DumbbellConfig cfg = base;
    cfg.num_senders = flows;
    cfg.marking.kind = ecn::MarkingKind::kPerQueueStandard;
    cfg.marking.threshold_bytes = std::max<std::uint64_t>(k_bytes, 1);
    cfg.marking.weights = {1.0};
    DumbbellScenario sc(cfg);
    for (std::size_t i = 0; i < flows; ++i) {
      sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
    }
    const auto rates = bench::measure_queue_rates(sc, sim::milliseconds(10), end);
    table.add_row({stats::Table::num(factor, 2),
                   stats::Table::num(static_cast<double>(k_bytes) / 1500.0, 1),
                   std::to_string(flows), stats::Table::num(rates.total),
                   stats::Table::num(rates.total / 10.0 * 100.0, 1)});
  }
  table.print();
  return 0;
}
