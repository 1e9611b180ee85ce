// Microbenchmarks for the two substrate paths perf/probe.cpp does not cover:
// timer churn (arm, then destroy most timers before they fire) on both
// event-queue backends, and the per-packet buffer-admission decision of each
// shared-buffer policy. The kernel hold model, scheduler and per-scheme
// marking costs are pmsb_probe's `sim.*`, `sched` and `ecn.<scheme>` rows
// (perf/README.md).
//
// Timing is hand-rolled (one warm-up, then timed reps) and printed as a
// table: median wall time per rep and median ns per operation.
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "switchlib/buffer_policy.hpp"
#include "switchlib/buffer_pool.hpp"

using namespace pmsb;

namespace {

volatile std::uint64_t g_sink = 0;  // keeps the measured loops observable

/// Runs `fn` (one rep = `ops` operations) once untimed, then timed reps, and
/// adds one row to `table`.
void time_bench(stats::Table& table, const std::string& name, std::uint64_t ops,
                const std::function<void()>& fn) {
  const int reps = bench::full_scale() ? 9 : 5;
  fn();
  stats::Summary wall;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    wall.add(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  const double median = wall.percentile(50);
  table.add_row({name, stats::Table::num(median * 1e3, 3),
                 stats::Table::num(median * 1e9 / static_cast<double>(ops), 1),
                 std::to_string(reps)});
}

void timer_churn(sim::QueueBackend backend, std::int64_t batch) {
  // The retransmission-timer pattern: most timers are called off before they
  // fire. Arms `batch` sim::Timers, destroys 3 of every 4 while armed, and
  // runs the rest: exercises the timer table, the tombstones destruction
  // leaves and their compactor (g_sink folds in queue_compactions so it
  // can't be elided).
  sim::Simulator sim(backend);
  std::int64_t fired = 0;
  // Timers built in place, so a rep measures the kernel, not the allocator.
  std::vector<std::optional<sim::Timer>> timers(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    sim::Timer& timer = timers[static_cast<std::size_t>(i)].emplace(
        sim, [](void* n) { ++*static_cast<std::int64_t*>(n); }, &fired);
    timer.arm((i * 7919) % 100000, sim.reserve_seq());
  }
  for (std::int64_t i = 0; i < batch; ++i) {
    if (i % 4 != 0) timers[static_cast<std::size_t>(i)].reset();
  }
  sim.run();
  g_sink = static_cast<std::uint64_t>(fired) + sim.queue_compactions();
}

void buffer_admission_churn(const switchlib::BufferPolicyConfig& policy_cfg,
                            std::int64_t ops) {
  // The per-packet admission hot path a Port runs: policy->admit() against a
  // live ledger, charge on accept, release on the simulated departure. Eight
  // slots churn in round-robin with staggered packet sizes so occupancy (and
  // with it every policy's threshold math) keeps moving; refusals count into
  // g_sink so the decision branch can't be elided.
  constexpr std::size_t kPorts = 8;
  switchlib::BufferPool pool(96 * 1500);
  std::vector<switchlib::BufferPool::SlotId> slots;
  std::vector<std::uint64_t> port_bytes(kPorts, 0);
  for (std::size_t p = 0; p < kPorts; ++p) slots.push_back(pool.register_slot());
  const auto policy = switchlib::make_buffer_policy(policy_cfg);
  std::uint64_t refused = 0;
  // A sliding window of in-flight (slot, bytes) charges; departures lag
  // arrivals by kPorts * 4 packets, keeping the pool part-full.
  std::vector<std::pair<std::size_t, std::uint64_t>> in_flight;
  std::size_t drain = 0;
  for (std::int64_t i = 0; i < ops; ++i) {
    const std::size_t p = static_cast<std::size_t>(i) % kPorts;
    const std::uint64_t size = 64 + (static_cast<std::uint64_t>(i) * 577) % 1437;
    const switchlib::AdmissionRequest req{.packet_bytes = size,
                                          .port_bytes = port_bytes[p],
                                          .port_budget = 32 * 1500,
                                          .pool = &pool};
    if (policy->admit(req)) {
      ++refused;
    } else {
      pool.charge(slots[p], size);
      port_bytes[p] += size;
      in_flight.emplace_back(p, size);
    }
    while (in_flight.size() - drain > kPorts * 4) {
      const auto [dp, dsize] = in_flight[drain++];
      pool.release(slots[dp], dsize);
      port_bytes[dp] -= dsize;
    }
    if (drain > 4096) {  // compact the FIFO's consumed prefix
      in_flight.erase(in_flight.begin(),
                      in_flight.begin() + static_cast<std::ptrdiff_t>(drain));
      drain = 0;
    }
  }
  g_sink = refused + pool.bytes();
}

}  // namespace

int main() {
  bench::print_header(
      "Engine microbenchmarks — timer churn and buffer admission",
      "isolated simulator / buffer-pool loops, no network model",
      "throughput here bounds the reachable scale of every figure bench");

  const std::int64_t timers = 100000;
  const std::int64_t admit_ops =
      static_cast<std::int64_t>(bench::scaled(200000, 2000000));

  stats::Table table({"bench", "median_ms", "ns_per_op", "reps"}, 20);
  // Timer churn runs once per queue backend: the unsuffixed name is the
  // heap, "@cal" the calendar queue on the identical workload.
  const struct {
    sim::QueueBackend backend;
    const char* suffix;
  } kBackends[] = {{sim::QueueBackend::kHeap, ""},
                   {sim::QueueBackend::kCalendar, "@cal"}};
  for (const auto& b : kBackends) {
    time_bench(table, std::string("timer_churn/1e5") + b.suffix,
               static_cast<std::uint64_t>(timers),
               [&] { timer_churn(b.backend, timers); });
  }
  // Per-packet admission cost of each shared-buffer policy (admit + ledger
  // charge/release), a branch on the Port::handle hot path.
  const struct {
    const char* name;
    switchlib::BufferPolicyConfig cfg;
  } kPolicies[] = {
      {"buffer_admit/static", {.kind = switchlib::BufferPolicyKind::kStaticPerPort}},
      {"buffer_admit/equal",
       {.kind = switchlib::BufferPolicyKind::kStaticEqualDivision}},
      {"buffer_admit/dt",
       {.kind = switchlib::BufferPolicyKind::kDynamicThresholds, .dt_alpha = 1.0}},
  };
  for (const auto& p : kPolicies) {
    time_bench(table, p.name, static_cast<std::uint64_t>(admit_ops),
               [&] { buffer_admission_churn(p.cfg, admit_ops); });
  }
  table.print();
  return 0;
}
