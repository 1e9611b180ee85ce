// Parallel deterministic sweep runner.
//
// The paper's evaluation is a grid of scenario runs (thresholds x schedulers
// x loads x workloads x seeds). Each simulator run stays single-threaded and
// deterministic — a run is fully determined by its Options — so a sweep is
// embarrassingly parallel: expand_grid() turns a base config plus a spec
// string into N SweepPoints, and run_sweep() fans them across a worker pool.
//
// Determinism contract: a run owns every piece of mutable state it touches
// (Simulator, packet-id allocator, Rng, telemetry registry), so the results
// of point i are bit-identical whether the sweep runs with jobs=1 or
// jobs=32, and whether the point runs first or last in the process.
// deterministic_signature() serializes exactly the reproducible part of a
// RunRecord (everything except wall-clock) so tests and CI can assert this.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "experiments/options.hpp"

namespace pmsb::sweep {

/// One cell of the sweep grid: the base options with this point's overrides
/// applied. `label` names only the varied keys ("load=0.3 scheduler=wfq").
struct SweepPoint {
  std::size_t index = 0;
  std::string label;
  experiments::Options opts;
};

/// The seed a run with these options uses: `seed=`, default 1. Every
/// reader of the seed goes through here, so a cell's record names the seed
/// the cell actually ran with.
[[nodiscard]] inline std::uint64_t run_seed(const experiments::Options& opts) {
  return opts.get_uint("seed", 1);
}

/// Expands `spec` against `base` into the cartesian product of its
/// dimensions. Spec grammar (CLI-friendly: no '=' or spaces needed):
///
///   spec      := dimension (';' dimension)*
///   dimension := key ':' value (',' value)*
///
/// e.g. "load:0.3,0.5,0.7;scheduler:dwrr,wfq" -> 6 points. Dimensions vary
/// in declaration order, last dimension fastest. Throws std::invalid_argument
/// on malformed specs (empty key, empty value list, duplicate key).
[[nodiscard]] std::vector<SweepPoint> expand_grid(const experiments::Options& base,
                                                  const std::string& spec);

/// Runs fn(0..n-1) across `jobs` worker threads (jobs <= 1 runs inline on
/// the calling thread). Indices are handed out by an atomic counter; call
/// order across threads is unspecified, so fn must only write state owned by
/// its index. The first exception thrown by any fn is rethrown on the
/// calling thread after all workers join.
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

/// Outcome of one sweep point. Everything except `wall_ms`, `salvaged`,
/// `profile` and the supervisor diagnostics is a pure function of the
/// point's options.
struct RunRecord {
  std::size_t index = 0;
  std::string label;
  bool ok = false;
  std::string error;                           ///< non-empty when !ok
  std::map<std::string, std::string> config;   ///< the point's full options
  std::map<std::string, std::string> info;     ///< string facts (topology, ...)
  std::map<std::string, double> results;       ///< scalar results
  double sim_time_us = 0.0;
  double wall_ms = 0.0;                        ///< nondeterministic; not in signatures
  /// The cell's record file (see write_cell_record), or the run manifest of
  /// a run_scenario() call given `metrics_json=`; "" when neither was written.
  std::string manifest_path;
  /// The run's pmsb.profile/1 JSON under `profile=1`, else "". Wall-clock
  /// timings: not in signatures, and only the cell record carries it.
  std::string profile;
  /// True when the record was rehydrated from an existing cell record
  /// instead of re-running the cell. Process-local bookkeeping: excluded
  /// from both deterministic_signature() and the report JSON, so a resumed
  /// sweep's report is byte-identical to an uninterrupted run's.
  bool salvaged = false;

  // --- supervisor diagnostics (see cell_supervisor.hpp) ------------------
  // Live measurements of how the cell executed, not what it computed: like
  // wall_ms they are excluded from deterministic_signature(), and salvaged
  // records keep the defaults.
  std::size_t attempts = 1;    ///< executions incl. retries (salvaged: 1)
  std::string exit_class = "ok";  ///< ok | throw | signal | timeout | oom
  int exit_signal = 0;         ///< terminating signal when exit_class=signal
  int exit_code = 0;           ///< child exit code when it exited abnormally
  double peak_rss_bytes = 0.0;  ///< child ru_maxrss (isolated cells only)
  /// Failed terminally under isolation (retries exhausted or deterministic
  /// failure); the sweep completed around it, and its record re-runs it
  /// solo (`pmsbsim repro=`).
  bool quarantined = false;
};

struct SweepConfig {
  std::size_t jobs = 1;
  /// When non-empty, each cell writes its record (write_cell_record) at
  /// <manifest_dir>/<manifest_file_name(index, grid)> (the directory must
  /// exist), failed cells included, so a later resume re-runs those
  /// instead of salvaging them.
  std::string manifest_dir;
  /// With manifest_dir set: before running a cell, try to rehydrate it from
  /// its existing record (see try_salvage_cell). Valid records are
  /// salvaged; missing, corrupt, config-drifted, or failed ones are re-run.
  bool resume = false;
  /// > 0: per-cell wall-clock budget in host seconds, enforced from inside
  /// each cell's event loop (the wall budget of faults::Watchdog). An
  /// over-budget cell fails alone with a [cell_timeout] diagnostic; the rest
  /// of the grid proceeds. In-process (isolate=false) this is BEST-EFFORT:
  /// the guard's tick is a sim event, so a callback that never returns is
  /// never interrupted. With isolate=true the supervisor additionally
  /// hard-kills the child past the budget.
  double cell_timeout_s = 0.0;
  /// Run each cell in a forked child under the CellSupervisor: crashes
  /// (SIGSEGV, OOM kills, wedged callbacks) fail the cell — with a named
  /// exit class in the report — instead of the whole sweep. Results come
  /// back through the per-cell records; with an empty manifest_dir a
  /// private temp directory is created (and reported via manifest_path).
  bool isolate = false;
  /// With isolate: RLIMIT_AS cap per child, in MiB (0 = unlimited).
  /// Echoed into each cell's config as cell_mem_mb= so `pmsbsim repro=`
  /// and salvage validation carry it; inert in-process.
  std::size_t cell_mem_mb = 0;
  /// With isolate: extra attempts for cells that fail in a crash class
  /// (signal / timeout / oom). Deterministic failures (class throw) are
  /// never retried. A cell that exhausts its attempts is quarantined: the
  /// sweep completes, and the cell's record carries the diagnostic.
  std::size_t cell_retries = 0;
  /// With isolate: backoff before retry k is retry_backoff_ms * 2^(k-1)
  /// milliseconds. Tests shrink it; the default absorbs transient host
  /// pressure (the usual cause of spurious OOM / timeout classes).
  double retry_backoff_ms = 250.0;
  /// Print one progress line per completed run.
  bool progress = false;
  /// Called (concurrently, from worker threads) once per cell that actually
  /// executes — salvaged cells skip it. Tests use it as a run counter to
  /// assert a resume re-runs only missing/invalid cells.
  std::function<void(std::size_t index)> on_cell_run;
};

/// Runs every point (isolated scenario per point; see scenario_run.hpp) and
/// returns records in point order. A point whose run throws yields a record
/// with ok=false and the exception message — the sweep itself never throws
/// on scenario errors.
[[nodiscard]] std::vector<RunRecord> run_sweep(const std::vector<SweepPoint>& points,
                                               const SweepConfig& config);

/// Per-cell record file name: "run_<index>.json", zero-padded to the
/// grid's width (min 3 digits, wider for grids >= 1000 cells) so every cell
/// gets a distinct, equal-length name and lexicographic order equals index
/// order.
[[nodiscard]] std::string manifest_file_name(std::size_t index,
                                             std::size_t grid_size);

/// Writes the cell record of `point`, schema `pmsb.sweep_cell/1`: the
/// cell's pmsb.sweep_report/1 row (same writer, same keys) after `schema`,
/// `git`, `seed` (omitted when the seed does not parse) and, under
/// `profile=1`, the embedded pmsb.profile/1 `profile`. It is the cell's
/// checkpoint, failure record and `pmsbsim repro=` input in one. Throws
/// std::runtime_error on I/O failure.
void write_cell_record(const std::string& path, const SweepPoint& point,
                       const RunRecord& rec);

/// Reads a record write_cell_record wrote back into a RunRecord whose
/// manifest_path is `path`: what the cell computed and how it ended (index,
/// label, ok, error, exit_class, config, info, results, sim_time_us). The
/// live measurements of the execution that wrote it (wall_ms, attempts,
/// exit signal and code, peak RSS, quarantine) and the profile keep their
/// defaults. Throws std::runtime_error naming the path when the file is
/// unreadable, not JSON, not a pmsb.sweep_cell/1 document, or malformed.
[[nodiscard]] RunRecord read_cell_record(const std::string& path);

/// Result of attempting to salvage one cell from its on-disk record.
struct SalvageOutcome {
  std::optional<RunRecord> record;  ///< set iff the record was valid
  std::string reason;               ///< why salvage was refused (diagnostic)
};

/// Validates the record at `path` against the grid point `point` (whose
/// options must already carry the transforms run_sweep applies: per-cell
/// caps set, per-run file outputs erased) and, when it checks out, returns
/// it as read_cell_record reads it, marked salvaged: its
/// deterministic_signature() matches what re-running the cell would have
/// produced. Salvage is refused — with the reason — when the file is
/// missing or unreadable (see read_cell_record), the cell did not complete
/// (`ok` false), it carries no results, or its config echo drifted from
/// the grid point.
[[nodiscard]] SalvageOutcome try_salvage_cell(const std::string& path,
                                              const SweepPoint& point);

/// Canonical serialization of the reproducible part of a record (label,
/// config, info, results at full double precision, sim time). Two runs of
/// the same point are bit-identical iff their signatures compare equal.
[[nodiscard]] std::string deterministic_signature(const RunRecord& rec);

/// Aggregated sweep report, schema `pmsb.sweep_report/1`:
///   { "schema": "pmsb.sweep_report/1", "git": ..., "jobs": N,
///     "points": N, "failed": N, "quarantined": N, "wall_s": W,
///     "runs": [ {"index", "label", "ok", "error"?, "attempts",
///                "exit_class", "exit_signal"?, "exit_code"?,
///                "peak_rss_bytes"?, "quarantined"?, "config", "info",
///                "results", "sim_time_us", "wall_ms", "manifest"?}, ...] }
/// exit_signal / exit_code appear when non-zero, peak_rss_bytes when the
/// cell ran isolated, quarantined only on quarantined cells, manifest when
/// the cell wrote a record.
[[nodiscard]] std::string sweep_report_json(const std::vector<RunRecord>& records,
                                            std::size_t jobs, double wall_s);

/// One row per run: index,label,ok,attempts,exit_class,error,sim_time_us,
/// wall_ms plus the sorted union of every result key (blank cell where a
/// run lacks the key).
[[nodiscard]] std::string sweep_report_csv(const std::vector<RunRecord>& records);

/// Writes `content` to `path`; throws std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace pmsb::sweep
