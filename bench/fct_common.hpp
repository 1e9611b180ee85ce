// Shared driver for the large-scale leaf-spine FCT benches (Figs. 16-27).
//
// Every run is a pmsbsim leaf-spine point on the sweep's worker pool, so it
// has §VI.B's setup: 48 hosts in a 4x4 non-blocking leaf-spine, 10G links,
// ECMP, DCTCP with IW=16, 8 equal-weight service queues per port, and link
// propagation that puts the unloaded inter-rack RTT near the paper's ~78-85
// us operating point. Two keys add what the figures need beyond pmsbsim's
// leaf-spine defaults:
//   - max_cwnd_bytes=2000000: big-buffer hosts, as in the paper's NS-3 setup
//     (its slow-start peaks imply windows far beyond the default socket
//     cap). The window a flow reaches on an idle path before congestion
//     sets the burst small flows must queue behind, so it is part of what
//     the schemes are judged on.
//   - rtt_us=78 on MQ-ECN and TCN: the paper's standard K = 65 pkts and TCN
//     threshold T_k = 78 us. PMSB and PMSB(e) keep the measured ~85.2 us.
// Each figure cell averages its seeds; tail percentiles over a few hundred
// flows are noisy otherwise. PMSB_BENCH_CHECKPOINT_DIR (made if missing)
// keeps every run's sweep cell record there (its config, info and results,
// about 1.4 KB) and salvages matching ones on a re-run;
// PMSB_BENCH_CELL_TIMEOUT_S gives each run a wall-clock budget. A run that
// fails, for any reason, fails alone and counts as zeros; the bench prints
// its table and exits 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "experiments/presets.hpp"
#include "sweep/sweep.hpp"

namespace pmsb::bench {

/// One figure cell: each result of its runs, averaged over the seeds.
using FctCell = std::map<std::string, double>;

/// Figure cells by (load, pmsbsim scheme name).
using FctGrid = std::map<std::pair<double, std::string>, FctCell>;

/// A figure's cells, and how many of its runs failed.
struct FctFigure {
  FctGrid grid;
  std::size_t failed_runs = 0;
};

/// Runs the (load x scheme x seed) grid on `scheduler`, prints the FCT table
/// and returns the cells. Runs come back in grid order, so the cells are
/// bit-identical for any PMSB_BENCH_JOBS.
inline FctFigure run_fct_figure(const char* scheduler,
                                const std::vector<std::string>& schemes) {
  const auto loads = default_loads();
  const auto seeds = default_seeds();
  std::vector<sweep::SweepPoint> points;
  for (double load : loads) {
    for (const std::string& scheme : schemes) {
      for (std::uint64_t seed : seeds) {
        sweep::SweepPoint p;
        p.index = points.size();
        p.label = "load=" + stats::Table::num(load, 1) + " scheme=" + scheme +
                  " seed=" + std::to_string(seed);
        p.opts.set("topology", "leafspine");
        p.opts.set("scheduler", scheduler);
        p.opts.set("flows", std::to_string(scaled(300, 2000)));
        p.opts.set("max_sim_s", "30");
        p.opts.set("max_cwnd_bytes", "2000000");
        p.opts.set("load", telemetry::format_double(load));
        p.opts.set("scheme", scheme);
        p.opts.set("seed", std::to_string(seed));
        if (scheme == "mq-ecn" || scheme == "tcn") p.opts.set("rtt_us", "78");
        points.push_back(std::move(p));
      }
    }
  }

  sweep::SweepConfig cfg;
  cfg.jobs = bench_jobs();
  const char* ckpt = std::getenv("PMSB_BENCH_CHECKPOINT_DIR");
  if (ckpt != nullptr && *ckpt != '\0') {
    std::error_code ec;  // a directory that cannot be made fails every run loudly
    std::filesystem::create_directories(ckpt, ec);
    cfg.manifest_dir = ckpt;
    cfg.resume = true;
  }
  if (const char* v = std::getenv("PMSB_BENCH_CELL_TIMEOUT_S")) {
    cfg.cell_timeout_s = std::max(0.0, std::atof(v));
  }
  std::printf("(%zu runs x jobs=%zu)\n", points.size(), cfg.jobs);
  if (cfg.resume) {
    std::printf("(checkpointing to %s — completed cells salvage on re-run)\n", ckpt);
  }
  if (cfg.cell_timeout_s > 0.0) {
    std::printf("(per-cell wall-clock budget %.3g s)\n", cfg.cell_timeout_s);
  }
  const auto records = sweep::run_sweep(points, cfg);

  FctFigure fig;
  FctGrid& grid = fig.grid;
  std::size_t salvaged = 0;
  for (const sweep::RunRecord& r : records) {
    if (r.salvaged) ++salvaged;
    if (!r.ok) {
      ++fig.failed_runs;
      std::fprintf(stderr, "cell %zu (%s) failed [%s]: %s\n", r.index, r.label.c_str(),
                   r.exit_class.c_str(), r.error.c_str());
    }
    const double load = loads[r.index / (schemes.size() * seeds.size())];
    FctCell& cell = grid[{load, points[r.index].opts.get("scheme")}];
    for (const auto& [key, value] : r.results) cell[key] += value;
    cell["all_flows_completed"] +=
        r.ok && r.info.at("all_flows_completed") == "true" ? 1.0 : 0.0;
  }
  for (auto& [at, cell] : grid) {
    for (auto& [key, sum] : cell) sum /= static_cast<double>(seeds.size());
  }
  if (cfg.resume) {
    std::printf("(salvaged %zu/%zu cells from %s)\n", salvaged, records.size(), ckpt);
  }

  stats::Table table({"load", "scheme", "overall_avg", "large_avg", "large_p99",
                      "small_avg", "small_p95", "small_p99"},
                     12);
  for (double load : loads) {
    for (const std::string& scheme : schemes) {
      FctCell& cell = grid[{load, scheme}];
      std::vector<std::string> row = {
          stats::Table::num(load, 1),
          experiments::scheme_name(experiments::parse_scheme(scheme))};
      for (const char* key :
           {"fct_us.overall.mean", "fct_us.large.mean", "fct_us.large.p99",
            "fct_us.small.mean", "fct_us.small.p95", "fct_us.small.p99"}) {
        row.push_back(stats::Table::num(cell[key], 0));
      }
      table.add_row(row);
    }
  }
  std::printf("(all FCTs in microseconds)\n");
  table.print();
  if (fig.failed_runs > 0) {
    std::fprintf(stderr, "%zu/%zu runs failed; their cells count them as zeros\n",
                 fig.failed_runs, records.size());
  }
  return fig;
}

/// `ours`'s reduction of result `key` against `base`, in percent, averaged
/// over the loads.
inline double mean_reduction_pct(FctGrid& grid, const std::string& ours,
                                 const std::string& base, const std::string& key) {
  const auto loads = default_loads();
  double sum = 0;
  for (double load : loads) {
    const double b = grid[{load, base}][key];
    const double o = grid[{load, ours}][key];
    sum += (b - o) / b * 100.0;
  }
  return sum / static_cast<double>(loads.size());
}

}  // namespace pmsb::bench
