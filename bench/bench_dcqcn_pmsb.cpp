// Extension bench: PMSB with a rate-based transport (DCQCN, the paper's
// cited RDMA congestion control [18]).
//
// The victim experiment of Fig. 3, re-run with DCQCN senders instead of
// DCTCP: per-port marking starves the single-flow queue; PMSB's selective
// blindness restores the DWRR weighted share — showing the switch-side
// algorithm is transport-agnostic.
#include <vector>

#include "bench_common.hpp"
#include "transport/dcqcn.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {
struct Shares {
  double q0_share;
  double total_gbps;
  std::uint64_t cnps;
};

Shares run(ecn::MarkingKind kind, std::uint64_t threshold_pkts, sim::TimeNs end) {
  DumbbellConfig cfg;
  cfg.num_senders = 9;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = kind;
  cfg.marking.threshold_bytes = threshold_pkts * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  DumbbellScenario sc(cfg);
  transport::DcqcnConfig dc;
  transport::DcqcnFlowTable table;
  std::vector<transport::DcqcnFlow*> flows;
  for (std::size_t i = 0; i <= 8; ++i) {
    // Flow 700 is alone in service 0; flows 701-708 share service 1.
    const net::ServiceId service = i == 0 ? 0 : 1;
    flows.push_back(&table.add(sc.simulator(), sc.sender(i), sc.receiver(),
                               static_cast<net::FlowId>(700 + i), service, 0, dc));
    flows.back()->start(0);
  }
  sc.run(sim::milliseconds(15));
  const auto s0 = sc.served_bytes(0);
  const auto s1 = sc.served_bytes(1);
  sc.run(end);
  const double d0 = static_cast<double>(sc.served_bytes(0) - s0);
  const double d1 = static_cast<double>(sc.served_bytes(1) - s1);
  std::uint64_t cnps = 0;
  for (transport::DcqcnFlow* f : flows) cnps += f->receiver().cnps_sent();
  return {d0 / (d0 + d1), (d0 + d1) * 8.0 / static_cast<double>(end - sim::milliseconds(15)),
          cnps};
}
}  // namespace

int main() {
  bench::print_header(
      "Extension — PMSB with DCQCN (rate-based RDMA transport)",
      "1 DCQCN flow (queue 1) vs 8 DCQCN flows (queue 2), DWRR 1:1, 10G",
      "per-port marking starves the victim; PMSB restores the 50% share —"
      " selective blindness is transport-agnostic");

  const sim::TimeNs end = sim::milliseconds(bench::scaled(75, 300));
  stats::Table table({"marking", "q1_share(%)", "total(Gbps)", "CNPs"}, 16);
  const auto perport = run(ecn::MarkingKind::kPerPort, 16, end);
  table.add_row({"PerPort K=16pkt", stats::Table::num(perport.q0_share * 100, 1),
                 stats::Table::num(perport.total_gbps), std::to_string(perport.cnps)});
  const auto pmsb = run(ecn::MarkingKind::kPmsb, 12, end);
  table.add_row({"PMSB K=12pkt", stats::Table::num(pmsb.q0_share * 100, 1),
                 stats::Table::num(pmsb.total_gbps), std::to_string(pmsb.cnps)});
  table.print();
  return 0;
}
