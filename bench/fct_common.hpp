// Shared driver for the large-scale leaf-spine FCT benches (Figs. 16-27).
//
// Topology and parameters follow §VI.B: 48 hosts in a 4x4 non-blocking
// leaf-spine, 10G links, ECMP, DCTCP with IW=16, 8 equal-weight service
// queues per port. Link propagation is chosen so the unloaded inter-rack
// RTT lands near the paper's ~78-85 us operating point, which makes the
// paper's absolute thresholds (K=65 pkts standard, PMSB port K=12 pkts,
// TCN T_k=78 us, PMSB(e) RTT threshold 85.2 us) drop out of the same
// formulas the paper uses.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "faults/watchdog.hpp"
#include "sched/factory.hpp"
#include "sim/rng.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/manifest_reader.hpp"
#include "telemetry/run_report.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::bench {

struct FctResult {
  double overall_avg = 0;
  double large_avg = 0, large_p99 = 0;
  double small_avg = 0, small_p95 = 0, small_p99 = 0;
  std::size_t flows = 0;
  std::uint64_t drops = 0;
  bool completed = false;
};

struct FctRunConfig {
  experiments::Scheme scheme = experiments::Scheme::kPmsb;
  sched::SchedulerKind scheduler = sched::SchedulerKind::kDwrr;
  double load = 0.5;
  std::size_t num_flows = 300;
  std::uint64_t seed = 1;
  /// > 0: wall-clock budget for this run, enforced from inside the event
  /// loop (faults::Watchdog); running out throws faults::WallBudgetExceeded.
  double cell_timeout_s = 0.0;
};

inline FctResult run_fct_experiment(const FctRunConfig& rc) {
  experiments::LeafSpineConfig cfg;  // paper defaults: 4x4, 12 hosts/leaf, 10G
  cfg.link_delay = sim::microseconds(9);  // unloaded inter-rack RTT ~77 us
  cfg.scheduler.kind = rc.scheduler;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  cfg.buffer_bytes = 2048ull * 1500ull;

  experiments::SchemeParams params;
  params.capacity = cfg.link_rate;
  params.weights = cfg.scheduler.weights;
  // Paper §VI.B: standard K = 65 pkts (RTT*lambda = 78 us) for MQ-ECN and
  // the TCN threshold; the PMSB port threshold uses the measured ~85.2 us.
  params.rtt = (rc.scheme == experiments::Scheme::kPmsb ||
                rc.scheme == experiments::Scheme::kPmsbE)
                   ? sim::microseconds_f(85.2)
                   : sim::microseconds(78);
  cfg.marking = experiments::make_scheme_marking(rc.scheme, params);

  cfg.transport.init_cwnd_segments = 16;  // paper: initial window 16 packets
  // Big-buffer hosts, as in the paper's NS-3 setup (its slow-start peaks
  // imply windows far beyond the default socket cap). The window a flow
  // reaches on an idle path before congestion sets the burst small flows
  // must queue behind — i.e. it is part of what the schemes are judged on.
  cfg.transport.max_cwnd_bytes = 2'000'000;
  // PMSB(e)'s RTT threshold is derived from the unloaded inter-rack RTT
  // (4 store-and-forward legs each way).
  experiments::apply_scheme_transport(
      rc.scheme, params, experiments::LeafSpineScenario::base_rtt_interrack(cfg),
      cfg.transport);

  experiments::LeafSpineScenario scenario(cfg);
  workload::TrafficConfig tc;
  tc.num_hosts = scenario.num_hosts();
  tc.load = rc.load;
  tc.edge_rate = cfg.link_rate;
  tc.num_flows = rc.num_flows;
  tc.num_services = 8;
  auto dist = workload::FlowSizeDistribution::paper_mix();
  sim::Rng rng(rc.seed);
  scenario.add_workload(workload::generate_poisson_traffic(tc, dist, rng));
  std::unique_ptr<faults::Watchdog> guard;
  if (rc.cell_timeout_s > 0.0) {
    guard = std::make_unique<faults::Watchdog>(
        scenario.simulator(), faults::WatchdogConfig{.wall_budget_s = rc.cell_timeout_s},
        [&scenario] { return scenario.total_bytes_acked(); },
        [&scenario] { return scenario.all_complete(); });
    guard->start();
  }
  const bool done = scenario.run_until_complete(sim::seconds(30));

  FctResult out;
  out.completed = done;
  out.flows = scenario.fct().count();
  out.drops = scenario.total_drops();
  out.overall_avg = scenario.fct().overall_fct_us().mean();
  const auto large = scenario.fct().fct_us(stats::SizeBin::kLarge);
  const auto small = scenario.fct().fct_us(stats::SizeBin::kSmall);
  out.large_avg = large.mean();
  out.large_p99 = large.percentile(99);
  out.small_avg = small.mean();
  out.small_p95 = small.percentile(95);
  out.small_p99 = small.percentile(99);
  return out;
}

inline std::vector<double> default_loads() {
  return full_scale() ? std::vector<double>{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
                      : std::vector<double>{0.3, 0.5, 0.7, 0.9};
}

inline std::vector<std::uint64_t> default_seeds() {
  return full_scale() ? std::vector<std::uint64_t>{42, 43, 44, 45, 46}
                      : std::vector<std::uint64_t>{42, 43, 44};
}

/// Worker threads for the grid benches: PMSB_BENCH_JOBS overrides, default
/// is the hardware concurrency (at least 1).
inline std::size_t bench_jobs() {
  if (const char* v = std::getenv("PMSB_BENCH_JOBS")) {
    const long n = std::atol(v);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// Checkpoint directory for the FCT grid benches: when
/// PMSB_BENCH_CHECKPOINT_DIR names an existing directory, every completed
/// cell writes a pmsb.run_manifest/1 there and a re-run salvages matching
/// cells instead of re-simulating them (kill the bench, re-run, keep the
/// finished cells). Empty when unset.
inline std::string bench_checkpoint_dir() {
  const char* v = std::getenv("PMSB_BENCH_CHECKPOINT_DIR");
  return v == nullptr ? std::string() : std::string(v);
}

/// Per-cell wall-clock budget for the FCT grid benches:
/// PMSB_BENCH_CELL_TIMEOUT_S > 0 arms a faults::Watchdog in every cell so a
/// pathological cell fails alone instead of hanging the whole grid. 0 when
/// unset or unparseable.
inline double bench_cell_timeout_s() {
  const char* v = std::getenv("PMSB_BENCH_CELL_TIMEOUT_S");
  if (v == nullptr) return 0.0;
  const double s = std::atof(v);
  return s > 0.0 ? s : 0.0;
}

/// Config echo written into (and validated against) a cell's checkpoint
/// manifest. cell_timeout_s is deliberately excluded: the budget never
/// alters a completed run's results, so checkpoints stay valid when the
/// budget changes between invocations.
inline std::map<std::string, std::string> fct_cell_config(const FctRunConfig& rc) {
  return {{"scheme", experiments::scheme_name(rc.scheme)},
          {"scheduler", sched::scheduler_kind_name(rc.scheduler)},
          {"load", telemetry::format_double(rc.load)},
          {"flows", std::to_string(rc.num_flows)},
          {"seed", std::to_string(rc.seed)}};
}

/// Writes one completed cell's checkpoint manifest (best effort: a failed
/// write only costs the salvage on the next run).
inline void save_fct_checkpoint(const std::string& path, const FctRunConfig& rc,
                                const FctResult& r) {
  telemetry::RunManifest m("bench-fct");
  m.set_seed(rc.seed);
  m.set_config(fct_cell_config(rc));
  m.set_info("status", "ok");
  m.set_result("overall_avg", r.overall_avg);
  m.set_result("large_avg", r.large_avg);
  m.set_result("large_p99", r.large_p99);
  m.set_result("small_avg", r.small_avg);
  m.set_result("small_p95", r.small_p95);
  m.set_result("small_p99", r.small_p99);
  m.set_result("flows", static_cast<double>(r.flows));
  m.set_result("drops", static_cast<double>(r.drops));
  m.set_result("completed", r.completed ? 1.0 : 0.0);
  try {
    m.write(path, nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "checkpoint write failed (%s): %s\n", path.c_str(),
                 e.what());
  }
}

/// Tries to rehydrate one cell from its checkpoint manifest. Refuses —
/// and the cell re-runs — when the file is missing/corrupt, was written by
/// a different tool or schema, is not a completed run, or its config echo
/// does not match `rc` (e.g. the grid or scale mode changed).
inline std::optional<FctResult> load_fct_checkpoint(const std::string& path,
                                                    const FctRunConfig& rc) {
  telemetry::ManifestData m;
  try {
    m = telemetry::read_run_manifest(path);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (m.schema != "pmsb.run_manifest/1" || m.tool != "bench-fct") return std::nullopt;
  const auto status = m.info.find("status");
  if (status == m.info.end() || status->second != "ok") return std::nullopt;
  if (m.config != fct_cell_config(rc)) return std::nullopt;
  const char* keys[] = {"overall_avg", "large_avg", "large_p99",
                        "small_avg",   "small_p95", "small_p99",
                        "flows",       "drops",     "completed"};
  for (const char* k : keys) {
    if (m.results.find(k) == m.results.end()) return std::nullopt;
  }
  FctResult r;
  r.overall_avg = m.results.at("overall_avg");
  r.large_avg = m.results.at("large_avg");
  r.large_p99 = m.results.at("large_p99");
  r.small_avg = m.results.at("small_avg");
  r.small_p95 = m.results.at("small_p95");
  r.small_p99 = m.results.at("small_p99");
  r.flows = static_cast<std::size_t>(m.results.at("flows"));
  r.drops = static_cast<std::uint64_t>(m.results.at("drops"));
  r.completed = m.results.at("completed") != 0.0;
  return r;
}

/// Prints the grid banner plus any checkpoint / timeout wiring picked up
/// from the environment. Call before run_fct_grid.
inline void announce_grid(std::size_t cells, std::size_t jobs) {
  std::printf("(%zu runs x jobs=%zu)\n", cells, jobs);
  const std::string ckpt = bench_checkpoint_dir();
  if (!ckpt.empty()) {
    std::printf("(checkpointing to %s — completed cells salvage on re-run)\n",
                ckpt.c_str());
  }
  const double timeout = bench_cell_timeout_s();
  if (timeout > 0.0) {
    std::printf("(per-cell wall-clock budget %.3g s)\n", timeout);
  }
}

/// Runs every cell as an isolated single-threaded simulator across `jobs`
/// worker threads. Results land in input order, so any aggregation done on
/// them is bit-identical regardless of jobs. Honors the
/// PMSB_BENCH_CHECKPOINT_DIR / PMSB_BENCH_CELL_TIMEOUT_S environment wiring
/// (see bench_checkpoint_dir / bench_cell_timeout_s): completed cells are
/// checkpointed and salvaged on re-run; a cell that blows its wall-clock
/// budget yields a default FctResult (completed=false) with a diagnostic on
/// stderr while the rest of the grid proceeds, and is not checkpointed so a
/// re-run retries it.
inline std::vector<FctResult> run_fct_grid(
    std::vector<FctRunConfig> cells, std::size_t jobs,
    const std::string& checkpoint_dir = bench_checkpoint_dir()) {
  const std::string& ckpt = checkpoint_dir;
  const double timeout = bench_cell_timeout_s();
  if (timeout > 0.0) {
    for (FctRunConfig& c : cells) c.cell_timeout_s = timeout;
  }
  std::vector<FctResult> out(cells.size());
  std::atomic<std::size_t> salvaged{0};
  sweep::parallel_for(cells.size(), jobs, [&](std::size_t i) {
    const std::string path =
        ckpt.empty() ? std::string()
                     : ckpt + "/" + sweep::manifest_file_name(i, cells.size());
    if (!path.empty()) {
      if (auto r = load_fct_checkpoint(path, cells[i])) {
        out[i] = *r;
        salvaged.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    try {
      out[i] = run_fct_experiment(cells[i]);
    } catch (const faults::WallBudgetExceeded& e) {
      out[i] = FctResult{};  // completed=false marks the cell as failed
      std::fprintf(stderr, "cell %zu timed out after %.2f s: %s\n", i,
                   e.elapsed_s, e.what());
      return;
    }
    if (!path.empty()) save_fct_checkpoint(path, cells[i], out[i]);
  });
  if (!ckpt.empty()) {
    std::printf("(salvaged %zu/%zu cells from %s)\n",
                salvaged.load(std::memory_order_relaxed), cells.size(),
                ckpt.c_str());
  }
  return out;
}

/// Averages per-seed runs of one (scheme, scheduler, load) cell — tail
/// percentiles over a few hundred flows are noisy otherwise.
inline FctResult aggregate_fct_cell(const std::vector<FctResult>& runs) {
  FctResult acc;
  for (const FctResult& r : runs) {
    acc.overall_avg += r.overall_avg;
    acc.large_avg += r.large_avg;
    acc.large_p99 += r.large_p99;
    acc.small_avg += r.small_avg;
    acc.small_p95 += r.small_p95;
    acc.small_p99 += r.small_p99;
    acc.flows += r.flows;
    acc.drops += r.drops;
    acc.completed = acc.completed || r.completed;
  }
  const double n = static_cast<double>(runs.size());
  acc.overall_avg /= n;
  acc.large_avg /= n;
  acc.large_p99 /= n;
  acc.small_avg /= n;
  acc.small_p95 /= n;
  acc.small_p99 /= n;
  return acc;
}

}  // namespace pmsb::bench
