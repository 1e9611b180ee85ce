// Example: using the telemetry registry + sampler to SEE the victim flow.
//
// The paper's argument starts from one observation: under per-port marking,
// "packets from one queue may get marked due to buffer occupancy of the
// other queues". This example binds the bottleneck port's instruments into a
// MetricsRegistry and reads, per queue, how many marks each queue's packets
// received — first under per-port marking (queue 1's lone flow is marked
// constantly despite holding almost nothing), then under PMSB (queue 1's
// marks disappear; the `ecn.mark_suppressed_blindness` counter shows the
// selective-blindness filter doing exactly that work). A TimeSeriesSampler
// rides along to show the backlog asymmetry the mark ratios come from.
#include <cstdio>
#include <string>

#include "experiments/dumbbell.hpp"
#include "stats/table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::experiments;

namespace {

double column_mean(const telemetry::TimeSeriesSampler& sampler, std::size_t col) {
  const auto& data = sampler.column(col);
  if (data.empty()) return 0.0;
  double sum = 0.0;
  for (double v : data) sum += v;
  return sum / static_cast<double>(data.size());
}

void run_case(ecn::MarkingKind kind, std::uint64_t threshold_pkts,
              stats::Table& table) {
  DumbbellConfig cfg;
  cfg.num_senders = 9;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = kind;
  cfg.marking.threshold_bytes = threshold_pkts * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  DumbbellScenario sc(cfg);

  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});  // the loner
  for (std::size_t i = 1; i <= 8; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
  }

  telemetry::MetricsRegistry registry;
  sc.bind_metrics(registry);

  telemetry::TimeSeriesSampler sampler(sc.simulator(), sim::microseconds(100));
  sc.add_sampler_columns(sampler);
  sampler.start();

  sc.run(sim::milliseconds(20));

  const telemetry::Labels port{{"port", "bottleneck"}};
  auto per_queue = [&port](std::size_t q) {
    telemetry::Labels l = port;
    l.emplace_back("queue", std::to_string(q));
    return l;
  };

  const char* name = kind == ecn::MarkingKind::kPerPort ? "PerPort" : "PMSB";
  for (std::size_t q = 0; q < 2; ++q) {
    const double pkts = registry.value("sched.dequeued_packets", per_queue(q));
    const double marks = registry.value("port.marks", per_queue(q));
    // Columns 1..num_queues of the sampler are the per-queue backlog probes.
    const double backlog = column_mean(sampler, 1 + q);
    table.add_row({std::string(name) + (q == 0 ? " q1(1 flow)" : " q2(8 flows)"),
                   stats::Table::num(pkts, 0), stats::Table::num(marks, 0),
                   stats::Table::num(pkts > 0 ? 100.0 * marks / pkts : 0.0, 1),
                   stats::Table::num(backlog / 1500.0, 1)});
  }

  if (kind == ecn::MarkingKind::kPmsb) {
    std::printf(
        "PMSB forensics: %.0f threshold evaluations, %.0f times the port was over\n"
        "its threshold, %.0f marks suppressed by selective blindness.\n\n",
        registry.value("ecn.threshold_evals", port),
        registry.value("ecn.port_over_threshold", port),
        registry.value("ecn.mark_suppressed_blindness", port));
  }
}

}  // namespace

int main() {
  std::printf("Victim forensics with the telemetry registry\n");
  std::printf("1 flow (queue 1) vs 8 flows (queue 2), DWRR 1:1, 10G, 20 ms.\n");
  std::printf("Watch queue 1's mark RATIO: per-port punishes the innocent;\n");
  std::printf("PMSB's selective blindness does not.\n\n");
  stats::Table table(
      {"queue", "packets", "marks", "mark_ratio(%)", "avg_backlog(pkt)"}, 18);
  run_case(ecn::MarkingKind::kPerPort, 16, table);
  run_case(ecn::MarkingKind::kPmsb, 12, table);
  table.print();
  return 0;
}
