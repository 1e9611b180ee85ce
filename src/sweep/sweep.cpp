#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include <filesystem>

#include "faults/watchdog.hpp"
#include "sweep/cell_supervisor.hpp"
#include "sweep/scenario_run.hpp"
#include "telemetry/manifest_reader.hpp"
#include "telemetry/run_report.hpp"

namespace pmsb::sweep {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// Full-precision double formatting: round-trips exactly, so signatures are
// bit-faithful to the computed values.
using telemetry::format_double;

}  // namespace

std::vector<SweepPoint> expand_grid(const experiments::Options& base,
                                    const std::string& spec) {
  struct Dimension {
    std::string key;
    std::vector<std::string> values;
  };
  std::vector<Dimension> dims;
  std::set<std::string> seen;
  for (const std::string& dim_spec : split(spec, ';')) {
    if (dim_spec.empty()) continue;  // tolerate trailing ';'
    const std::size_t colon = dim_spec.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("sweep spec: dimension '" + dim_spec +
                                  "' is not key:v1,v2,...");
    }
    Dimension d;
    d.key = dim_spec.substr(0, colon);
    if (!seen.insert(d.key).second) {
      throw std::invalid_argument("sweep spec: duplicate key '" + d.key + "'");
    }
    for (const std::string& v : split(dim_spec.substr(colon + 1), ',')) {
      if (v.empty()) {
        throw std::invalid_argument("sweep spec: empty value for key '" + d.key + "'");
      }
      d.values.push_back(v);
    }
    dims.push_back(std::move(d));
  }
  if (dims.empty()) {
    throw std::invalid_argument("sweep spec: no dimensions in '" + spec + "'");
  }

  std::size_t total = 1;
  for (const auto& d : dims) total *= d.values.size();

  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    SweepPoint p;
    p.index = i;
    p.opts = base;
    // Mixed-radix decode, last dimension fastest.
    std::size_t rest = i;
    for (std::size_t d = dims.size(); d-- > 0;) {
      const auto& dim = dims[d];
      const std::string& value = dim.values[rest % dim.values.size()];
      rest /= dim.values.size();
      p.opts.set(dim.key, value);
    }
    for (const auto& dim : dims) {
      if (!p.label.empty()) p.label += ' ';
      p.label += dim.key + '=' + p.opts.get(dim.key);
    }
    points.push_back(std::move(p));
  }
  return points;
}

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(std::min(jobs, n));
  for (std::size_t w = 0; w < std::min(jobs, n); ++w) workers.emplace_back(worker);
  for (auto& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::string manifest_file_name(std::size_t index, std::size_t grid_size) {
  const std::size_t max_index = grid_size == 0 ? 0 : grid_size - 1;
  std::size_t digits = 1;
  for (std::size_t v = max_index; v >= 10; v /= 10) ++digits;
  const int width = static_cast<int>(std::max<std::size_t>(3, digits));
  char name[48];
  std::snprintf(name, sizeof(name), "run_%0*zu.json", width, index);
  return name;
}

namespace {

/// Applies the per-cell option transforms run_sweep makes before a cell
/// executes. Salvage validates manifests against the transformed options,
/// so the interrupted run and the resume must go through the same code.
void prepare_point(SweepPoint& point, const SweepConfig& config,
                   const std::string& manifest_path) {
  if (!manifest_path.empty()) point.opts.set("metrics_json", manifest_path);
  if (config.cell_timeout_s > 0.0) {
    point.opts.set("cell_timeout_s", format_double(config.cell_timeout_s));
  }
  if (config.cell_mem_mb > 0) {
    point.opts.set("cell_mem_mb", std::to_string(config.cell_mem_mb));
  }
  // Per-point file outputs other than the manifest would collide across
  // points (every point would write the same path); drop them.
  point.opts.erase("timeseries_csv");
  point.opts.erase("fct_csv");
  point.opts.erase("profile_json");
  point.opts.erase("spans_ndjson");
  point.opts.erase("trace_ndjson");
  point.opts.erase("trace_export");
}

/// Best-effort stub manifest for a failed cell: enough for a later resume
/// to see info.status=failed and re-run the cell rather than salvage it.
/// The record's supervisor diagnostics (attempts, exit class, child rusage)
/// ride along as info entries so a post-mortem of the directory alone tells
/// the whole story.
void write_failure_manifest(const std::string& path, const SweepPoint& point,
                            const RunRecord& rec) {
  telemetry::RunManifest manifest("pmsbsim-sweep");
  manifest.set_config(point.opts.values());
  manifest.set_info("status", "failed");
  manifest.set_info("error", rec.error);
  manifest.set_info("attempts", std::to_string(rec.attempts));
  manifest.set_info("exit_class", rec.exit_class);
  if (rec.exit_signal != 0) {
    manifest.set_info("exit_signal", std::to_string(rec.exit_signal));
  }
  if (rec.exit_code != 0) {
    manifest.set_info("exit_code", std::to_string(rec.exit_code));
  }
  if (rec.peak_rss_bytes > 0.0) {
    manifest.set_info("peak_rss_bytes", format_double(rec.peak_rss_bytes));
  }
  try {
    // Throws when the seed is what the cell failed on.
    manifest.set_seed(run_seed(point.opts));
    manifest.write(path, nullptr);
  } catch (...) {
    // The failed record already carries the error; a missing stub only
    // means a resume re-runs the cell, which is the safe direction.
  }
}

/// Supervisor bookkeeping keys a manifest's info section may carry. They
/// describe how a past execution went, not what the cell computed, so
/// salvage strips them — a rehydrated record must stay bit-identical to a
/// freshly-run one.
constexpr const char* kSupervisorInfoKeys[] = {
    "status", "attempts", "exit_class", "exit_signal", "exit_code",
    "peak_rss_bytes"};

}  // namespace

SalvageOutcome try_salvage_cell(const std::string& manifest_path,
                                const SweepPoint& point) {
  SalvageOutcome out;
  telemetry::ManifestData manifest;
  try {
    manifest = telemetry::read_run_manifest(manifest_path);
  } catch (const std::exception& e) {
    out.reason = e.what();
    return out;
  }
  if (manifest.schema != "pmsb.run_manifest/1") {
    out.reason = "schema is '" + manifest.schema + "', not pmsb.run_manifest/1";
    return out;
  }
  const auto status = manifest.info.find("status");
  if (status == manifest.info.end() || status->second != "ok") {
    out.reason = "not a completed run (status=" +
                 (status == manifest.info.end() ? std::string("<missing>")
                                                : status->second) +
                 ")";
    return out;
  }
  if (manifest.results.empty()) {
    out.reason = "manifest carries no results";
    return out;
  }
  const auto& expected = point.opts.values();
  if (manifest.config != expected) {
    // Name one drifted key so the operator can see what changed.
    std::string detail = "config drift vs grid point";
    for (const auto& [k, v] : expected) {
      const auto it = manifest.config.find(k);
      if (it == manifest.config.end()) {
        detail += ": '" + k + "' missing from manifest";
        break;
      }
      if (it->second != v) {
        detail += ": '" + k + "' is '" + it->second + "', grid wants '" + v + "'";
        break;
      }
    }
    for (const auto& [k, v] : manifest.config) {
      (void)v;
      if (expected.count(k) == 0) {
        detail += ": '" + k + "' not in grid point";
        break;
      }
    }
    out.reason = detail;
    return out;
  }

  RunRecord rec;
  rec.index = point.index;
  rec.label = point.label;
  rec.ok = true;
  rec.config = manifest.config;
  rec.info = manifest.info;
  // Manifest-only execution markers, not part of the record.
  for (const char* key : kSupervisorInfoKeys) rec.info.erase(key);
  rec.results = manifest.results;
  rec.sim_time_us = manifest.sim_time_us;
  rec.manifest_path = manifest_path;
  rec.salvaged = true;
  out.record = std::move(rec);
  return out;
}

namespace {

/// In-process execution of one prepared cell: the original path. Crash
/// containment is limited to C++ exceptions — anything harder takes the
/// whole process down (that is what isolate=true is for).
RunRecord run_cell_in_process(const SweepPoint& point,
                              const std::string& manifest_path) {
  RunRecord rec;
  try {
    rec = run_scenario(point, /*quiet=*/true);
  } catch (const std::exception& e) {
    rec.index = point.index;
    rec.label = point.label;
    rec.ok = false;
    rec.error = e.what();
    rec.config = point.opts.values();
    rec.exit_class = "throw";
    if (dynamic_cast<const faults::WallBudgetExceeded*>(&e) != nullptr) {
      rec.info["failed_phase"] = "run";
      rec.exit_class = "timeout";
    }
    if (!manifest_path.empty()) {
      write_failure_manifest(manifest_path, point, rec);
      rec.manifest_path = manifest_path;
    }
  }
  return rec;
}

/// Supervised execution of one prepared cell: fork, cap, classify, retry
/// crash classes with exponential backoff, quarantine what keeps failing.
RunRecord run_cell_supervised(const SweepPoint& point, const SweepConfig& config,
                              const std::string& manifest_path,
                              std::size_t grid_size) {
  CellLimits limits;
  limits.wall_s = config.cell_timeout_s;
  limits.mem_mb = config.cell_mem_mb;
  const std::size_t max_attempts = 1 + config.cell_retries;
  const auto repro_path =
      (std::filesystem::path(manifest_path).parent_path() /
       repro_file_name(point.index, grid_size))
          .string();

  CellOutcome outcome;
  std::size_t attempts = 0;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config.retry_backoff_ms *
          static_cast<double>(1ull << (attempt - 2))));
      // A crashed child may have left a half-written manifest behind; the
      // retry must start from a clean slate so a success writes the one and
      // only manifest for this cell.
      std::error_code ec;
      std::filesystem::remove(manifest_path, ec);
    }
    attempts = attempt;
    outcome = run_cell_in_child(point, limits, static_cast<int>(attempt));
    if (outcome.exit_class == ExitClass::kOk ||
        !exit_class_retryable(outcome.exit_class)) {
      break;
    }
  }

  RunRecord rec;
  if (outcome.exit_class == ExitClass::kOk) {
    SalvageOutcome salvage = try_salvage_cell(manifest_path, point);
    if (salvage.record.has_value()) {
      rec = std::move(*salvage.record);
      rec.salvaged = false;  // the cell really executed — in a child
      // A bundle from an earlier, crashier pass over this cell is obsolete.
      std::error_code ec;
      std::filesystem::remove(repro_path, ec);
    } else {
      rec.index = point.index;
      rec.label = point.label;
      rec.ok = false;
      rec.config = point.opts.values();
      rec.exit_class = "throw";
      rec.error =
          "child exited cleanly but its manifest is unusable: " + salvage.reason;
    }
  } else {
    rec.index = point.index;
    rec.label = point.label;
    rec.ok = false;
    rec.config = point.opts.values();
    rec.error = outcome.error;
    rec.exit_class = exit_class_name(outcome.exit_class);
    rec.exit_signal = outcome.exit_signal;
    rec.exit_code = outcome.exit_code;
    if (outcome.exit_class == ExitClass::kTimeout) {
      rec.info["failed_phase"] = "run";
    }
  }
  rec.attempts = attempts;
  rec.peak_rss_bytes = outcome.peak_rss_bytes;
  if (!rec.ok) {
    // Graceful degradation: the cell is quarantined, the sweep completes.
    // The stub manifest makes a resume re-run it; the repro bundle makes
    // the failure reproducible solo (`pmsbsim repro=<file>`).
    rec.quarantined = true;
    write_failure_manifest(manifest_path, point, rec);
    rec.manifest_path = manifest_path;
    try {
      write_text_file(repro_path, repro_bundle_json(point, rec));
      rec.repro_path = repro_path;
    } catch (...) {
      // Quarantine holds without the bundle; the record has the diagnostic.
    }
  }
  return rec;
}

}  // namespace

std::vector<RunRecord> run_sweep(const std::vector<SweepPoint>& points,
                                 const SweepConfig& config) {
  SweepConfig cfg = config;
  if (cfg.isolate && cfg.manifest_dir.empty()) {
    // Isolated results travel through manifest files, so conjure a private
    // directory when the caller did not name one. Kept after the sweep:
    // quarantined cells' stubs and repro bundles live there.
    const std::string pattern =
        (std::filesystem::temp_directory_path() / "pmsb_sweep_XXXXXX").string();
    std::vector<char> tmpl(pattern.begin(), pattern.end());
    tmpl.push_back('\0');
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("run_sweep: cannot create a temp manifest dir");
    }
    cfg.manifest_dir.assign(tmpl.data());
  }

  std::vector<RunRecord> records(points.size());
  std::atomic<std::size_t> completed{0};
  std::mutex print_mutex;
  parallel_for(points.size(), cfg.jobs, [&](std::size_t i) {
    SweepPoint point = points[i];
    std::string manifest_path;
    if (!cfg.manifest_dir.empty()) {
      manifest_path =
          cfg.manifest_dir + "/" + manifest_file_name(point.index, points.size());
    }
    prepare_point(point, cfg, manifest_path);

    bool salvaged = false;
    std::string rerun_reason;
    if (cfg.resume && !manifest_path.empty()) {
      SalvageOutcome salvage = try_salvage_cell(manifest_path, point);
      if (salvage.record.has_value()) {
        records[i] = std::move(*salvage.record);
        salvaged = true;
      } else {
        rerun_reason = std::move(salvage.reason);
      }
    }

    if (!salvaged) {
      if (cfg.on_cell_run) cfg.on_cell_run(point.index);
      const auto t0 = std::chrono::steady_clock::now();
      RunRecord rec = cfg.isolate
                          ? run_cell_supervised(point, cfg, manifest_path,
                                                points.size())
                          : run_cell_in_process(point, manifest_path);
      rec.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      records[i] = std::move(rec);
    }

    const std::size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg.progress) {
      const std::lock_guard<std::mutex> lock(print_mutex);
      std::string status = records[i].salvaged ? "salvaged"
                           : records[i].ok    ? "ok"
                                              : "FAILED";
      if (records[i].quarantined) {
        status += " [quarantined: " + records[i].exit_class + "]";
      }
      std::printf("[%zu/%zu] %s: %s (%.0f ms)\n", done, points.size(),
                  points[i].label.c_str(), status.c_str(), records[i].wall_ms);
      if (cfg.resume && !records[i].salvaged && !rerun_reason.empty()) {
        std::printf("    re-run: %s\n", rerun_reason.c_str());
      }
      std::fflush(stdout);
    }
  });
  return records;
}

std::string deterministic_signature(const RunRecord& rec) {
  std::string s;
  s += "label " + rec.label + "\n";
  s += rec.ok ? "ok\n" : "error " + rec.error + "\n";
  for (const auto& [k, v] : rec.config) s += "config " + k + "=" + v + "\n";
  for (const auto& [k, v] : rec.info) s += "info " + k + "=" + v + "\n";
  for (const auto& [k, v] : rec.results) {
    s += "result " + k + "=" + format_double(v) + "\n";
  }
  s += "sim_time_us " + format_double(rec.sim_time_us) + "\n";
  return s;
}

std::string sweep_report_json(const std::vector<RunRecord>& records,
                              std::size_t jobs, double wall_s) {
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  for (const auto& r : records) {
    if (!r.ok) ++failed;
    if (r.quarantined) ++quarantined;
  }
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pmsb.sweep_report/1");
  w.key("git").value(telemetry::build_git_describe());
  w.key("jobs").value(static_cast<std::uint64_t>(jobs));
  w.key("points").value(static_cast<std::uint64_t>(records.size()));
  w.key("failed").value(static_cast<std::uint64_t>(failed));
  w.key("quarantined").value(static_cast<std::uint64_t>(quarantined));
  w.key("wall_s").value(wall_s);
  w.key("runs").begin_array();
  for (const auto& r : records) {
    w.begin_object();
    w.key("index").value(static_cast<std::uint64_t>(r.index));
    w.key("label").value(r.label);
    w.key("ok").value(r.ok);
    if (!r.ok) w.key("error").value(r.error);
    w.key("attempts").value(static_cast<std::uint64_t>(r.attempts));
    w.key("exit_class").value(r.exit_class);
    if (r.exit_signal != 0) {
      w.key("exit_signal").value(static_cast<std::int64_t>(r.exit_signal));
    }
    if (r.exit_code != 0) {
      w.key("exit_code").value(static_cast<std::int64_t>(r.exit_code));
    }
    if (r.peak_rss_bytes > 0.0) w.key("peak_rss_bytes").value(r.peak_rss_bytes);
    if (r.quarantined) w.key("quarantined").value(true);
    w.key("config").begin_object();
    for (const auto& [k, v] : r.config) w.key(k).value(v);
    w.end_object();
    w.key("info").begin_object();
    for (const auto& [k, v] : r.info) w.key(k).value(v);
    w.end_object();
    w.key("results").begin_object();
    for (const auto& [k, v] : r.results) w.key(k).value(v);
    w.end_object();
    w.key("sim_time_us").value(r.sim_time_us);
    w.key("wall_ms").value(r.wall_ms);
    if (!r.manifest_path.empty()) w.key("manifest").value(r.manifest_path);
    if (!r.repro_path.empty()) w.key("repro").value(r.repro_path);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::string sweep_report_csv(const std::vector<RunRecord>& records) {
  std::set<std::string> result_keys;
  for (const auto& r : records) {
    for (const auto& [k, v] : r.results) {
      (void)v;
      result_keys.insert(k);
    }
  }
  const auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string quoted = "\"";
    for (char c : cell) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::string out = "index,label,ok,attempts,exit_class,error,sim_time_us,wall_ms";
  for (const auto& k : result_keys) out += "," + escape(k);
  out += "\n";
  for (const auto& r : records) {
    out += std::to_string(r.index) + "," + escape(r.label) + "," +
           (r.ok ? "1" : "0") + "," + std::to_string(r.attempts) + "," +
           r.exit_class + "," + escape(r.error) + "," +
           format_double(r.sim_time_us) + "," + format_double(r.wall_ms);
    for (const auto& k : result_keys) {
      out += ",";
      const auto it = r.results.find(k);
      if (it != r.results.end()) out += format_double(it->second);
    }
    out += "\n";
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << content;
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

}  // namespace pmsb::sweep
