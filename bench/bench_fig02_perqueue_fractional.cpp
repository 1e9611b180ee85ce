// Figure 2: per-queue marking with a FRACTIONAL threshold loses throughput
// when few queues are active.
//
// A single flow through one of 8 queues. With the standard K=16 packets the
// flow reaches line rate; with the fractional share K=2 packets the window
// is cut so hard that the pipe cannot stay full (paper: ~6% loss).
#include "bench_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
double run_with_threshold(std::uint64_t k_packets, sim::TimeNs end) {
  DumbbellConfig cfg;
  cfg.num_senders = 1;
  // The paper's ~80 us operating RTT: underflow at K=2 needs the DCTCP
  // oscillation amplitude (~sqrt(2*BDP)/2 packets) to exceed K (§IV.D).
  cfg.link_delay = sim::microseconds(10);
  // Make the switch egress the bottleneck even for one flow (otherwise the
  // host NIC at the same rate absorbs the queue and ECN never engages).
  cfg.sender_uplink_rate = sim::gbps(40);
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  cfg.marking.kind = ecn::MarkingKind::kPerQueueStandard;  // uniform K per queue
  cfg.marking.threshold_bytes = k_packets * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  return bench::measure_queue_rates(sc, sim::milliseconds(5), end).total;
}
}  // namespace

int main() {
  bench::print_header(
      "Figure 2 — per-queue marking, fractional threshold",
      "1 flow, 8 queues, 10G; per-queue K = 2 pkts (fractional) vs 16 pkts",
      "K=16 reaches ~10G; K=2 loses several percent of throughput");

  const sim::TimeNs end = sim::milliseconds(bench::scaled(60, 300));
  stats::Table table({"threshold", "tput(Gbps)", "loss_vs_16pkt(%)"});
  const double full = run_with_threshold(16, end);
  const double frac = run_with_threshold(2, end);
  table.add_row({"16 pkts", stats::Table::num(full), "0.00"});
  table.add_row({"2 pkts", stats::Table::num(frac),
                 stats::Table::num((full - frac) / full * 100.0)});
  table.print();
  return 0;
}
