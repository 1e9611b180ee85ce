// Validation of the §IV.D steady-state model against simulation.
//
// n synchronized DCTCP flows share one queue with a per-queue threshold k.
// The model predicts the buffer sawtooth:
//   Q_max = k + n              (Eq. 8, in segments)
//   A     = sqrt(2n(CxRTT+k))/2  (Eq. 9)
//   Q_min = Q_max - A
// We trace the real queue and report predicted vs measured peak/trough for
// several (n, k) points. The model's worst case (Eq. 10/11) is what Theorem
// IV.1's bound is derived from, so agreement here grounds the theorem.
#include <algorithm>

#include "bench_common.hpp"
#include "core/thresholds.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

int main() {
  bench::print_header(
      "Model validation — §IV.D steady-state sawtooth (Eqs. 8-10)",
      "n flows, 1 queue, 10G, per-queue K; predicted vs measured Q_max/Q_min",
      "measured peaks/troughs track the analytical sawtooth");

  stats::Table table({"n", "k(pkts)", "Qmax_pred", "Qmax_meas", "Qmin_pred",
                      "Qmin_meas"}, 11);
  const double mss = 1500.0;
  for (const auto& [n, k_pkts] : std::vector<std::pair<std::size_t, double>>{
           {2, 16}, {4, 16}, {8, 16}, {4, 30}, {8, 30}}) {
    DumbbellConfig cfg;
    cfg.num_senders = n;
    cfg.link_delay = sim::microseconds(5);  // sizeable BDP for a clean sawtooth
    cfg.scheduler.kind = sched::SchedulerKind::kFifo;
    cfg.scheduler.num_queues = 1;
    cfg.marking.kind = ecn::MarkingKind::kPerQueueStandard;
    cfg.marking.threshold_bytes = static_cast<std::uint64_t>(k_pkts * 1500);
    DumbbellScenario sc(cfg);
    for (std::size_t i = 0; i < n; ++i) {
      sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
    }
    // Steady state only: start tracing after convergence.
    sc.run(sim::milliseconds(20));
    const auto occupancy = bench::sample_bottleneck(sc, sim::microseconds(1));
    sc.run(sim::milliseconds(bench::scaled(60, 200)));
    const auto [trough, peak] = std::ranges::minmax(occupancy->column(0));
    const sim::TimeNs rtt = sc.base_rtt();
    const double cxrtt = static_cast<double>(sim::bdp_bytes(cfg.link_rate, rtt));
    const double k_bytes = k_pkts * mss;
    const double qmax_pred = core::q_max_bytes(k_bytes, static_cast<double>(n), mss);
    const double qmin_pred = core::q_min_bytes(k_bytes, static_cast<double>(n), 1.0,
                                               cxrtt, mss);
    table.add_row({std::to_string(n), stats::Table::num(k_pkts, 0),
                   stats::Table::num(qmax_pred / mss, 1),
                   stats::Table::num(peak / mss, 1),
                   stats::Table::num(std::max(qmin_pred, 0.0) / mss, 1),
                   stats::Table::num(trough / mss, 1)});
  }
  table.print();
  std::printf("(predictions use the unloaded base RTT; the real operating RTT"
              " includes queueing, so cuts are a little deeper and measured"
              " troughs sit slightly below the model's)\n");
  return 0;
}
