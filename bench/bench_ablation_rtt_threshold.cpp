// Ablation: PMSB(e) sensitivity to the RTT threshold (§V's "main
// challenge" — how to pick the time threshold).
//
// 1-vs-8 flows under plain per-port marking with PMSB(e) senders; the RTT
// threshold is swept around the preset formula (base RTT + port-threshold
// drain time). Too low -> victims still back off (unfair); too high -> even
// genuinely congested flows ignore marks and latency grows.
#include "bench_common.hpp"
#include "stats/rtt_recorder.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Ablation — PMSB(e) RTT threshold sweep",
      "1 flow vs 8 flows, 2 DWRR queues 1:1, per-port K=12 pkts,"
      " rtt_threshold as multiple of the preset",
      "low thresholds leave the victim unprotected; around 1.0x restores"
      " fairness; very high thresholds inflate latency");

  SchemeParams params;
  params.capacity = sim::gbps(10);
  params.rtt = sim::microseconds(18);
  params.weights = {1.0, 1.0};

  stats::Table table({"threshold(x)", "thr(us)", "q1_share(%)", "rtt_p99(us)",
                      "tput(Gbps)", "ign_ratio(%)"});
  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  for (double factor : {0.0, 0.5, 0.8, 1.0, 1.3, 2.0, 4.0}) {
    DumbbellConfig cfg;
    cfg.num_senders = 9;
    cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
    cfg.scheduler.num_queues = 2;
    cfg.scheduler.weights = {1.0, 1.0};
    cfg.marking = make_scheme_marking(Scheme::kPmsbE, params);
    cfg.buffer_bytes = 4096ull * 1500ull;
    DumbbellScenario sc(cfg);
    const auto thr = static_cast<sim::TimeNs>(
        factor * static_cast<double>(pmsbe_rtt_threshold(params, sc.base_rtt())));
    sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0,
                 .pmsbe = true, .pmsbe_rtt_threshold = thr});
    stats::RttRecorder rtt(sim::milliseconds(10));
    for (std::size_t i = 1; i <= 8; ++i) {
      const auto idx = sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0,
                                    .pmsbe = true, .pmsbe_rtt_threshold = thr});
      sc.flow(idx).sender().add_observer(&rtt);
    }
    const auto rates = bench::measure_queue_rates(sc, 2, sim::milliseconds(10), end);
    std::uint64_t ece = 0, ign = 0;
    for (std::size_t f = 0; f < sc.num_flows(); ++f) {
      ece += sc.flow(f).sender().stats().ece_acks;
      ign += sc.flow(f).sender().stats().ece_ignored;
    }
    table.add_row({stats::Table::num(factor, 2),
                   stats::Table::num(sim::to_microseconds(thr), 1),
                   stats::Table::num(rates.gbps[0] / rates.total * 100.0, 1),
                   stats::Table::num(rtt.us().percentile(99), 1),
                   stats::Table::num(rates.total),
                   stats::Table::num(ece ? 100.0 * ign / ece : 0.0, 1)});
  }
  table.print();
  return 0;
}
