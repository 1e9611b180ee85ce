// Figure 5: TCN cannot accelerate congestion feedback.
//
// Same setup as Figure 4 but with TCN's sojourn-time marking (T_k = the
// drain time of 16 packets). Because a packet must EXPERIENCE the sojourn
// before it can be marked, TCN's buffer peak matches DCTCP's enqueue
// marking — it cannot exploit dequeue marking the way PMSB does.
#include <algorithm>

#include "bench_common.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
double run_peak(ecn::MarkingConfig marking) {
  DumbbellConfig cfg;
  cfg.num_senders = 4;
  cfg.link_rate = sim::gbps(1);
  cfg.scheduler.kind = sched::SchedulerKind::kFifo;
  cfg.scheduler.num_queues = 1;
  cfg.marking = std::move(marking);
  DumbbellScenario sc(cfg);
  const auto occupancy = bench::sample_bottleneck(sc, sim::microseconds(2));
  for (std::size_t i = 0; i < 4; ++i) {
    sc.add_flow({.sender = i, .service = 0, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(bench::scaled(30, 100)));
  return std::ranges::max(occupancy->column(0)) / 1500.0;
}
}  // namespace

int main() {
  bench::print_header(
      "Figure 5 — TCN cannot deliver congestion information early",
      "4 flows, 1 queue, 1G; TCN T_k = drain(16 pkts) vs DCTCP K=16",
      "TCN's peak matches DCTCP-enqueue; only buffer-based dequeue marking"
      " lowers it");

  ecn::MarkingConfig dctcp_enq;
  dctcp_enq.kind = ecn::MarkingKind::kPerQueueStandard;
  dctcp_enq.threshold_bytes = 16 * 1500;
  dctcp_enq.point = ecn::MarkPoint::kEnqueue;
  dctcp_enq.weights = {1.0};

  ecn::MarkingConfig dctcp_deq = dctcp_enq;
  dctcp_deq.point = ecn::MarkPoint::kDequeue;

  ecn::MarkingConfig tcn;
  tcn.kind = ecn::MarkingKind::kTcn;
  tcn.sojourn_threshold = sim::serialization_delay(16 * 1500, sim::gbps(1));

  // CoDel: the other duration-based AQM (extension baseline) — also unable
  // to accelerate feedback, for the same reason as TCN.
  ecn::MarkingConfig codel;
  codel.kind = ecn::MarkingKind::kCodel;
  codel.sojourn_threshold = tcn.sojourn_threshold;
  codel.weights = {1.0};

  stats::Table table({"scheme", "peak(pkts)"}, 20);
  const double p_enq = run_peak(dctcp_enq);
  const double p_deq = run_peak(dctcp_deq);
  const double p_tcn = run_peak(tcn);
  const double p_codel = run_peak(codel);
  table.add_row({"DCTCP enqueue", stats::Table::num(p_enq, 1)});
  table.add_row({"DCTCP dequeue", stats::Table::num(p_deq, 1)});
  table.add_row({"TCN (dequeue-only)", stats::Table::num(p_tcn, 1)});
  table.add_row({"CoDel (dequeue-only)", stats::Table::num(p_codel, 1)});
  table.print();
  std::printf("TCN peak vs DCTCP-enqueue: %.1f%% (near 0%% = no acceleration); "
              "DCTCP-dequeue: -%.1f%%\n",
              (p_tcn - p_enq) / p_enq * 100.0, (p_enq - p_deq) / p_enq * 100.0);
  return 0;
}
