// pmsbsim — run PMSB experiments from the command line.
//
// Examples:
//   pmsbsim topology=dumbbell scheduler=dwrr queues=2 weights=1,1
//           scheme=pmsb flows_per_queue=1,8 duration_ms=50
//   pmsbsim topology=leafspine scheme=tcn scheduler=wfq load=0.6 flows=400
//           seed=3 fct_csv=/tmp/fct.csv
//   pmsbsim --config experiment.conf scheme=pmsbe   # file + overrides
//   pmsbsim topology=leafspine flows=300 jobs=8
//           sweep="load:0.3,0.5,0.7,0.9;scheme:pmsb,tcn"
//           sweep_json=/tmp/sweep.json sweep_csv=/tmp/sweep.csv
//
// The accepted keys live in one place — the kKeys table below, which both
// generates `--help` and backs validate_keys(), so an unknown or misspelled
// key is rejected with a "did you mean" suggestion instead of being
// silently ignored. Behavioural details that don't fit a one-liner:
//
// - A key only the other topology reads exits 2 with "X= requires
//   topology=Y" (load= on the dumbbell, flows_per_queue= on the leaf-spine).
// - A count, size, rate or seed key below its minimum exits 2 naming the key
//   and value: any negative value, and 0 for queues=, link_gbps= and
//   rpc_bytes= (an rpc_bytes=0 response would be a long-lived flow).
// - digest=1 digests are what tools/pmsbregress compares against baselines.
// - Sweeps fan the grid across a worker pool; each run is an isolated
//   single-threaded simulator, so per-run results are bit-identical to a
//   serial jobs=1 sweep. Per-run file outputs (metrics_json, timeseries_csv,
//   fct_csv, profile_json, spans_ndjson, trace_ndjson, trace_export) are
//   dropped inside sweeps — the paths would collide.
// - sweep_manifest_dir= gives each cell one record, run_<i>.json (schema
//   pmsb.sweep_cell/1): its pmsb.sweep_report/1 row plus git, seed and,
//   under profile=1, the pmsb.profile/1 document. A failed cell writes one
//   too. The record is the cell's checkpoint and its repro= input.
// - sweep_resume=1 salvages cells whose record holds a completed,
//   config-matching run, wherever the directory has moved since; the final
//   report matches an uninterrupted sweep.
// - repro=<dir>/run_<i>.json re-runs that one cell; other keys override the
//   record's config, so `repro=... metrics_json=m.json isolate=0` writes
//   the cell's full run manifest.
// - A tripped watchdog (stall, event budget or cell_timeout_s) or a failed
//   invariant makes a single run exit 2 with the diagnostic on stderr;
//   inside a sweep only that cell fails.
// - Observability outputs (profile_json / spans_ndjson / trace_ndjson) are
//   consumed offline by tools/pmsbtrace; see docs/OBSERVABILITY.md.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "sweep/cell_supervisor.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"

using namespace pmsb;
using pmsb::experiments::Options;

namespace {

/// Every key pmsbsim accepts, with one-line help. --help prints this table
/// and validate_keys() rejects anything not in it, so the two cannot drift:
/// adding a key here is what makes the tool accept it.
struct KeyHelp {
  const char* key;
  const char* help;
};

constexpr KeyHelp kKeys[] = {
    // Scenario shape.
    {"topology", "dumbbell | leafspine (default dumbbell); the other "
                 "topology's keys are rejected"},
    {"scheme", "pmsb | pmsbe | mq-ecn | tcn | perport | perqueue-std | "
               "perqueue-frac | none (default pmsb)"},
    {"scheduler", "fifo | sp | wrr | dwrr | wfq | sp+wfq (default dwrr)"},
    {"queues", "number of service queues (default 2 / 8)"},
    {"weights", "comma list, one per queue (default all 1)"},
    {"rtt_us", "RTT used in the threshold formulas (default 18 / 85.2)"},
    {"mark_point", "enqueue | dequeue (default enqueue)"},
    {"max_cwnd_bytes", "host congestion-window cap in bytes, at least one "
                       "MSS (default 256 MSS = 373760)"},
    {"sched_queue", "event queue backend: heap | calendar (default calendar)"},
    {"seed", "workload / fault RNG seed (default 1)"},
    // Shared-buffer management (docs/DESIGN.md "Buffer management").
    {"buffer_policy", "static | equal | dt: shared-buffer admission policy "
                      "(default static = per-port drop-tail)"},
    {"buffer_bytes", "shared pool size in bytes (0 = policy default: "
                     "per-port budget x ports of the switch)"},
    {"dt_alpha", "dt: allowance factor alpha in threshold = alpha * free "
                 "pool (default 1.0)"},
    // Dumbbell-only: rejected with topology=leafspine.
    {"flows_per_queue", "dumbbell: comma list, e.g. 1,8"},
    {"duration_ms", "dumbbell: measured run length (default 50)"},
    {"link_gbps", "dumbbell: link rate (default 10)"},
    // Leaf-spine-only, like the workload-plane keys below except d2tcp:
    // rejected with topology=dumbbell.
    {"load", "leafspine: offered load fraction (default 0.5)"},
    {"flows", "leafspine: number of flows (default 300)"},
    {"workload", "leafspine: paper-mix | web-search | data-mining"},
    {"max_sim_s", "leafspine: simulated-time cap (default 60)"},
    {"fct_csv", "leafspine: path for per-flow FCT records"},
    // Workload plane v2 (leafspine; docs/DESIGN.md "Workload plane").
    {"pattern", "leafspine workload family: poisson | coflow | rpc "
                "(default poisson)"},
    {"trace_file", "leafspine: replay a pmsb.flow_trace/1 NDJSON trace "
                   "(overrides pattern/load/flows/workload)"},
    {"trace_export", "leafspine: write the run's realized workload as a "
                     "replayable pmsb.flow_trace/1 trace"},
    {"coflows", "coflow: number of coflows (default 20)"},
    {"mappers", "coflow: mappers per stage (default 4)"},
    {"reducers", "coflow: reducers per stage (default 4)"},
    {"stages", "coflow: shuffle stages with barriers between (default 1)"},
    {"coflow_gap_us", "coflow: mean Poisson inter-arrival (default 1000)"},
    {"rpcs", "rpc: number of fan-out RPCs (default 50)"},
    {"fanout", "rpc: responders per RPC (default 8)"},
    {"rpc_bytes", "rpc: response shard size in bytes (default 20000)"},
    {"rpc_deadline_us", "rpc: completion deadline after RPC start; 0 "
                        "disables (default 2000)"},
    {"rpc_gap_us", "rpc: mean Poisson inter-arrival (default 500)"},
    {"d2tcp", "1: deadline-aware D2TCP window cuts on flows that carry "
              "deadlines (default 0)"},
    // Telemetry.
    {"metrics_json", "path: write a pmsb.run_manifest/1 JSON (dropped "
                     "inside sweeps)"},
    {"timeseries_csv", "path: stream per-port occupancy / mark-rate CSV"},
    {"sample_period_us", "timeseries sampling period (default 100)"},
    {"digest", "1: report the run's 128-bit event digest"},
    // Stability analysis (DESIGN.md "Stability analysis").
    {"stability", "1: post-run oscillation detection over sampled queue "
                  "columns (ACF peak >= 0.5, swing >= 18000 B and >= the "
                  "window mean, 3 windows in a row); emits stability.* "
                  "results"},
    {"stability_window", "analysis window in samples (default 64)"},
    // Observability (docs/OBSERVABILITY.md).
    {"profile", "1: per-event-kind kernel + component profiler; the "
                "pmsb.profile/1 JSON lands in the run manifest"},
    {"profile_json", "path: also write the pmsb.profile/1 JSON standalone "
                     "(implies profile=1)"},
    {"trace_flows", "comma list of transport flow ids as in fct_csv, "
                    "1-based (or 'all'): capture packet "
                    "lifecycle spans for these flows"},
    {"spans_ndjson", "path: write captured spans as NDJSON (needs "
                     "trace_flows=); feed to pmsbtrace flow"},
    {"trace_ndjson", "path: write the trace port's event stream as NDJSON; "
                     "feed to pmsbtrace port"},
    // Robustness (docs/ROBUSTNESS.md).
    {"faults", "fault timeline: link:A-B:down@T1..T2 | loss:A->B:P | "
               "delay:A->B:D[+J] | bleach:A:P, joined by ';'"},
    {"bleach", "scalar sugar: bleach probability at the default nodes"},
    {"bleach_at", "comma list of node names overriding bleach locations"},
    {"fault_test", "break_invariant: deliberately trip the ledger (tests)"},
    {"invariants", "0 disables runtime invariant checking (default 1)"},
    {"watchdog_horizon_ms", "abort when no flow progress for this long"},
    {"watchdog_events", "abort when executed events exceed this budget"},
    {"cell_timeout_s", "> 0: per-run wall-clock budget (in-process this is "
                       "best-effort; see isolate=)"},
    // Sweeps.
    {"sweep", "grid spec \"key:v1,v2[;key2:w1,w2]\" — cartesian product"},
    {"jobs", "sweep worker threads (default 1)"},
    {"sweep_json", "path: aggregated pmsb.sweep_report/1 JSON"},
    {"sweep_csv", "path: one CSV row per run"},
    {"sweep_manifest_dir", "existing dir: one record per cell, run_<i>.json "
                           "(pmsb.sweep_cell/1)"},
    {"sweep_resume", "1: salvage completed cells from sweep_manifest_dir; "
                     "crashed / quarantined cells are re-run"},
    // Crash-proofing (docs/ROBUSTNESS.md).
    {"isolate", "1: run each sweep cell in a forked child; crashes / OOM "
                "kills / wedged cells quarantine with a failed record "
                "instead of killing the sweep"},
    {"cell_mem_mb", "isolate: RLIMIT_AS per child, MiB (0 = unlimited)"},
    {"cell_retries", "isolate: extra attempts for signal/timeout/oom cells "
                     "(throws are deterministic, never retried)"},
    {"repro", "path to a cell record (sweep_manifest_dir's run_<i>.json): "
              "re-run that cell solo (other keys override; isolate=0 to "
              "debug in-process)"},
};

void print_usage() {
  std::printf(
      "usage: pmsbsim [--config FILE] [key=value ...]\n"
      "\n"
      "Examples:\n"
      "  pmsbsim topology=dumbbell scheduler=dwrr queues=2 weights=1,1 \\\n"
      "          scheme=pmsb flows_per_queue=1,8 duration_ms=50\n"
      "  pmsbsim topology=leafspine scheme=tcn load=0.6 flows=400 seed=3\n"
      "  pmsbsim profile=1 trace_flows=1,2 spans_ndjson=/tmp/spans.ndjson\n"
      "  pmsbsim topology=leafspine sweep=\"load:0.3,0.5,0.7;scheme:pmsb,tcn\" \\\n"
      "          jobs=8 sweep_json=/tmp/sweep.json\n"
      "\n"
      "Keys:\n");
  for (const KeyHelp& k : kKeys) std::printf("  %-22s %s\n", k.key, k.help);
}

std::vector<std::string> allowed_keys() {
  std::vector<std::string> out;
  for (const KeyHelp& k : kKeys) out.emplace_back(k.key);
  return out;
}

int run_sweep_cli(const Options& opts) {
  const std::string spec = opts.get("sweep");
  sweep::SweepConfig cfg;
  cfg.jobs = opts.get_uint("jobs", 1);
  cfg.manifest_dir = opts.get("sweep_manifest_dir");
  cfg.resume = opts.get_bool("sweep_resume", false);
  cfg.cell_timeout_s = opts.get_double("cell_timeout_s", 0.0);
  cfg.isolate = opts.get_bool("isolate", false);
  cfg.cell_mem_mb = opts.get_uint("cell_mem_mb", 0, 0, sweep::kMaxCellMemMb);
  cfg.cell_retries = opts.get_uint("cell_retries", 0);
  cfg.progress = true;
  if (cfg.resume && cfg.manifest_dir.empty()) {
    throw std::invalid_argument(
        "sweep_resume=1 requires sweep_manifest_dir= (there is nothing to "
        "salvage from)");
  }
  if (cfg.cell_timeout_s > 0.0 && !cfg.isolate) {
    // The budget is checked by the watchdog tick, itself a sim event.
    std::printf(
        "note: cell_timeout_s is enforced from inside the event loop: a "
        "callback that never returns is never interrupted. Use isolate=1 for "
        "a hard (out-of-process) kill.\n");
  }

  // The base config every point starts from: everything except the keys
  // that steer the sweep itself.
  Options base = opts;
  for (const char* key : {"sweep", "jobs", "sweep_json", "sweep_csv",
                          "sweep_manifest_dir", "sweep_resume",
                          "cell_timeout_s", "isolate", "cell_mem_mb",
                          "cell_retries"}) {
    base.erase(key);
  }
  const auto points = sweep::expand_grid(base, spec);
  std::printf("sweep: %zu points x jobs=%zu%s\n", points.size(), cfg.jobs,
              cfg.isolate ? " (isolated cells)" : "");

  const auto t0 = std::chrono::steady_clock::now();
  const auto records = sweep::run_sweep(points, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::size_t failed = 0;
  std::size_t salvaged = 0;
  std::size_t quarantined = 0;
  for (const auto& r : records) {
    if (r.salvaged) ++salvaged;
    if (r.quarantined) ++quarantined;
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "FAILED [%zu] %s: %s\n", r.index, r.label.c_str(),
                   r.error.c_str());
      if (r.quarantined) {
        std::fprintf(stderr, "    quarantined: class=%s attempts=%zu repro=%s\n",
                     r.exit_class.c_str(), r.attempts, r.manifest_path.c_str());
      }
    }
  }
  std::printf("sweep done: %zu/%zu ok in %.2f s", records.size() - failed,
              records.size(), wall_s);
  if (cfg.resume) std::printf(" (%zu salvaged, %zu re-run)", salvaged,
                              records.size() - salvaged);
  if (quarantined > 0) std::printf(" (%zu quarantined)", quarantined);
  std::printf("\n");

  if (opts.has("sweep_json")) {
    sweep::write_text_file(opts.get("sweep_json"),
                           sweep::sweep_report_json(records, cfg.jobs, wall_s));
    std::printf("wrote %s\n", opts.get("sweep_json").c_str());
  }
  if (opts.has("sweep_csv")) {
    sweep::write_text_file(opts.get("sweep_csv"), sweep::sweep_report_csv(records));
    std::printf("wrote %s\n", opts.get("sweep_csv").c_str());
  }
  return failed == 0 ? 0 : 1;
}

/// Re-runs the sweep cell a record describes, solo. Exit 0 when the cell
/// completes, 2 when it fails (so scripts can tell "fixed" from "still
/// broken"). By default the cell runs under the supervisor — a reproduced
/// hang or OOM stays bounded; `isolate=0` runs it in-process for a
/// debugger. The record itself is left as it is.
int run_repro_cli(const Options& opts) {
  const sweep::RunRecord cell = sweep::read_cell_record(opts.get("repro"));
  std::printf("repro: cell %zu (%s), recorded as '%s'\n", cell.index, cell.label.c_str(),
              cell.exit_class.c_str());
  if (!cell.ok) std::printf("  was: %s\n", cell.error.c_str());

  sweep::SweepPoint point;
  point.index = cell.index;
  point.label = cell.label;
  for (const auto& [k, v] : cell.config) point.opts.set(k, v);
  // CLI keys override the record's echo (loosen cell_timeout_s=, drop the
  // memory cap, isolate=0 for gdb, metrics_json= for a full manifest, ...).
  for (const auto& [k, v] : opts.values()) {
    if (k != "repro") point.opts.set(k, v);
  }

  const bool isolate = point.opts.get_bool("isolate", true);
  point.opts.erase("isolate");
  if (!isolate) {
    std::printf("repro: running in-process (crashes crash THIS process)\n");
    (void)sweep::run_scenario(point, /*quiet=*/false);
    std::printf("repro: cell completed ok\n");
    return 0;
  }

  sweep::CellLimits limits;
  limits.wall_s = point.opts.get_double("cell_timeout_s", 0.0);
  limits.mem_mb = point.opts.get_uint("cell_mem_mb", 0, 0, sweep::kMaxCellMemMb);
  const sweep::CellOutcome outcome = sweep::run_cell_in_child(point, limits, 1, "");
  if (outcome.exit_class == sweep::ExitClass::kOk) {
    std::printf("repro: cell completed ok (%.0f ms, peak rss %.0f MiB)\n",
                outcome.wall_ms, outcome.peak_rss_bytes / (1024.0 * 1024.0));
    return 0;
  }
  std::fprintf(stderr, "repro: cell failed again: class=%s\n  %s\n",
               sweep::exit_class_name(outcome.exit_class), outcome.error.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h" || arg == "help") {
      print_usage();
      return 0;
    }
  }
  try {
    const Options opts = Options::from_args(argc, argv);
    opts.validate_keys(allowed_keys());
    if (opts.has("repro")) return run_repro_cli(opts);
    if (opts.has("sweep")) return run_sweep_cli(opts);
    sweep::SweepPoint point;
    point.opts = opts;
    (void)sweep::run_scenario(point, /*quiet=*/false);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmsbsim: %s\n", e.what());
    return 2;
  }
}
