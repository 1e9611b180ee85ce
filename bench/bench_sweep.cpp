// Sweep runner benchmark: determinism + parallel speedup + salvage cost.
//
// Runs the same 16-point leaf-spine grid (4 loads x 4 schemes) twice — once
// serially (jobs=1) and once across the worker pool — and checks that every
// per-run deterministic_signature() is bit-identical between the two. On an
// 8-core host the parallel pass should land near-linear (>= 3x); on small
// hosts the determinism check is the point and the speedup line is
// informational. A third pass writes per-cell records and a fourth resumes
// from them: the resume must salvage every cell (zero re-runs), reproduce
// every signature bit-for-bit, and cost a small fraction of a real sweep.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

using namespace pmsb;

namespace {

double timed_sweep(const std::vector<sweep::SweepPoint>& points,
                   const sweep::SweepConfig& cfg,
                   std::vector<sweep::RunRecord>& records) {
  const auto t0 = std::chrono::steady_clock::now();
  records = sweep::run_sweep(points, cfg);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  bench::print_header(
      "Sweep runner — parallel fan-out of deterministic runs",
      "16-point leaf-spine grid (4 loads x 4 schemes), jobs=1 vs worker pool",
      "per-run results bit-identical across jobs; near-linear speedup on"
      " multi-core hosts");

  experiments::Options base;
  base.set("topology", "leafspine");
  base.set("flows", std::to_string(bench::scaled(120, 400)));
  base.set("seed", "42");
  const auto points = sweep::expand_grid(
      base, "load:0.3,0.5,0.7,0.9;scheme:pmsb,pmsbe,mq-ecn,tcn");

  const std::size_t jobs = bench::bench_jobs();
  std::vector<sweep::RunRecord> serial, parallel;
  sweep::SweepConfig serial_cfg;
  serial_cfg.jobs = 1;
  sweep::SweepConfig parallel_cfg;
  parallel_cfg.jobs = jobs;
  const double t_serial = timed_sweep(points, serial_cfg, serial);
  const double t_parallel = timed_sweep(points, parallel_cfg, parallel);

  std::size_t mismatches = 0, failures = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!serial[i].ok || !parallel[i].ok) ++failures;
    if (sweep::deterministic_signature(serial[i]) !=
        sweep::deterministic_signature(parallel[i])) {
      ++mismatches;
      std::printf("MISMATCH [%zu] %s\n", i, serial[i].label.c_str());
    }
  }

  // Salvage pass: write cell records, then resume from them. Every cell must
  // rehydrate (no re-runs), and every signature must match the live run.
  namespace fs = std::filesystem;
  const fs::path manifest_dir =
      fs::temp_directory_path() / "pmsb_bench_sweep_manifests";
  fs::remove_all(manifest_dir);
  fs::create_directories(manifest_dir);

  sweep::SweepConfig write_cfg;
  write_cfg.jobs = jobs;
  write_cfg.manifest_dir = manifest_dir.string();
  std::vector<sweep::RunRecord> written, resumed;
  const double t_write = timed_sweep(points, write_cfg, written);

  std::atomic<std::size_t> reruns{0};
  sweep::SweepConfig resume_cfg = write_cfg;
  resume_cfg.resume = true;
  resume_cfg.on_cell_run = [&](std::size_t) {
    reruns.fetch_add(1, std::memory_order_relaxed);
  };
  const double t_resume = timed_sweep(points, resume_cfg, resumed);

  std::size_t salvage_mismatches = 0, salvage_misses = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!resumed[i].salvaged) ++salvage_misses;
    if (sweep::deterministic_signature(written[i]) !=
        sweep::deterministic_signature(resumed[i])) {
      ++salvage_mismatches;
      std::printf("SALVAGE MISMATCH [%zu] %s\n", i, written[i].label.c_str());
    }
  }
  fs::remove_all(manifest_dir);

  std::printf("points=%zu  jobs=%zu\n", points.size(), jobs);
  std::printf("serial   : %.2f s\n", t_serial);
  std::printf("parallel : %.2f s  (speedup %.2fx)\n", t_parallel,
              t_parallel > 0 ? t_serial / t_parallel : 0.0);
  std::printf("records  : %.2f s to write, %.2f s to salvage all %zu\n", t_write,
              t_resume, points.size());
  std::printf("signatures: %s (%zu mismatches, %zu failed runs)\n",
              mismatches == 0 && failures == 0 ? "IDENTICAL" : "DIFFER",
              mismatches, failures);
  std::printf("salvage   : %s (%zu re-runs, %zu missed, %zu mismatches)\n",
              reruns.load() == 0 && salvage_misses == 0 && salvage_mismatches == 0
                  ? "CLEAN"
                  : "DIRTY",
              reruns.load(), salvage_misses, salvage_mismatches);
  const bool ok = mismatches == 0 && failures == 0 && reruns.load() == 0 &&
                  salvage_misses == 0 && salvage_mismatches == 0;
  return ok ? 0 : 1;
}
