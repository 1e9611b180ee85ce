#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include <filesystem>

#include "faults/watchdog.hpp"
#include "sweep/cell_supervisor.hpp"
#include "sweep/scenario_run.hpp"
#include "telemetry/json_reader.hpp"
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

constexpr const char* kCellSchema = "pmsb.sweep_cell/1";

/// Applies the per-cell option transforms run_sweep makes before a cell
/// executes. Salvage validates records against the transformed options,
/// so the interrupted run and the resume must go through the same code.
void prepare_point(SweepPoint& point, const SweepConfig& config) {
  if (config.cell_timeout_s > 0.0) {
    point.opts.set("cell_timeout_s", format_double(config.cell_timeout_s));
  }
  if (config.cell_mem_mb > 0) {
    point.opts.set("cell_mem_mb", std::to_string(config.cell_mem_mb));
  }
  // Per-run file outputs would collide across points (every point would
  // write the same path); drop them, and trace_flows= with spans_ndjson=,
  // since spans nobody writes are only resident memory. A cell's results
  // land in its record.
  for (const char* key : {"metrics_json", "timeseries_csv", "fct_csv", "profile_json",
                          "trace_flows", "spans_ndjson", "trace_ndjson", "trace_export"}) {
    point.opts.erase(key);
  }
}

/// The fields of one run's pmsb.sweep_report/1 row, written into an open
/// object. A cell's record holds the same fields, so the two cannot drift.
void write_row_fields(telemetry::JsonWriter& w, const RunRecord& r) {
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
}

}  // namespace

void write_cell_record(const std::string& path, const SweepPoint& point,
                       const RunRecord& rec) {
  std::optional<std::uint64_t> seed;
  try {
    seed = run_seed(point.opts);
  } catch (const std::invalid_argument&) {
    // The seed is what the cell failed on; the config echo still holds it.
  }
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kCellSchema);
  w.key("git").value(telemetry::build_git_describe());
  if (seed.has_value()) w.key("seed").value(*seed);
  if (!rec.profile.empty()) w.key("profile").raw_value(rec.profile);
  write_row_fields(w, rec);
  w.end_object();
  write_text_file(path, w.str() + "\n");
}

RunRecord read_cell_record(const std::string& path) {
  using telemetry::json::ParseError;
  using telemetry::json::Value;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cell record " + path + ": cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const Value doc = telemetry::json::parse(text.str());
    const Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() || schema->string != kCellSchema) {
      throw ParseError("schema is '" + (schema != nullptr ? schema->string : "") +
                       "', not " + kCellSchema);
    }
    using Kind = Value::Kind;
    // Member `key` of the record: nullptr when absent, a ParseError naming
    // it when of the wrong kind.
    const auto find = [&doc](const std::string& key, Kind kind) {
      const Value* v = doc.find(key);
      if (v != nullptr && v->kind != kind) throw ParseError(key + " has the wrong type");
      return v;
    };
    const auto at = [&find](const std::string& key, Kind kind) -> const Value& {
      const Value* v = find(key, kind);
      if (v == nullptr) throw ParseError("no " + key);
      return *v;
    };
    const auto strings = [&at](const std::string& key) {
      std::map<std::string, std::string> out;
      for (const auto& [k, v] : at(key, Kind::kObject).object) {
        if (!v.is_string()) throw ParseError(key + "." + k + " is not a string");
        out[k] = v.string;
      }
      return out;
    };
    RunRecord rec;
    rec.index = static_cast<std::size_t>(at("index", Kind::kNumber).number);
    rec.label = at("label", Kind::kString).string;
    rec.ok = at("ok", Kind::kBool).boolean;
    if (const Value* v = find("error", Kind::kString)) rec.error = v->string;
    rec.exit_class = at("exit_class", Kind::kString).string;
    rec.config = strings("config");
    rec.info = strings("info");
    for (const auto& [k, v] : at("results", Kind::kObject).object) {
      if (!v.is_number()) throw ParseError("results." + k + " is not a number");
      rec.results[k] = v.number;
    }
    rec.sim_time_us = at("sim_time_us", Kind::kNumber).number;
    rec.manifest_path = path;
    return rec;
  } catch (const ParseError& e) {
    throw std::runtime_error("cell record " + path + ": " + e.what());
  }
}

SalvageOutcome try_salvage_cell(const std::string& path, const SweepPoint& point) {
  SalvageOutcome out;
  RunRecord rec;
  try {
    rec = read_cell_record(path);
  } catch (const std::exception& e) {
    out.reason = e.what();
    return out;
  }
  if (!rec.ok) {
    out.reason = "the cell failed [" + rec.exit_class + "]: " + rec.error;
    return out;
  }
  if (rec.results.empty()) {
    out.reason = "record carries no results";
    return out;
  }
  const auto& expected = point.opts.values();
  if (rec.config != expected) {
    // Name one drifted key so the operator can see what changed.
    std::string detail = "config drift vs grid point";
    for (const auto& [k, v] : expected) {
      const auto it = rec.config.find(k);
      if (it == rec.config.end()) {
        detail += ": '" + k + "' missing from record";
        break;
      }
      if (it->second != v) {
        detail += ": '" + k + "' is '" + it->second + "', grid wants '" + v + "'";
        break;
      }
    }
    for (const auto& [k, v] : rec.config) {
      (void)v;
      if (expected.count(k) == 0) {
        detail += ": '" + k + "' not in grid point";
        break;
      }
    }
    out.reason = detail;
    return out;
  }

  rec.index = point.index;
  rec.label = point.label;
  rec.salvaged = true;
  out.record = std::move(rec);
  return out;
}

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The record of a cell that failed with `error` in class `exit_class`.
RunRecord failed_record(const SweepPoint& point, std::string error,
                        std::string exit_class) {
  RunRecord rec;
  rec.index = point.index;
  rec.label = point.label;
  rec.ok = false;
  rec.error = std::move(error);
  rec.config = point.opts.values();
  rec.exit_class = std::move(exit_class);
  if (rec.exit_class == "timeout") rec.info["failed_phase"] = "run";
  return rec;
}

/// Writes a failed cell's record at `path` (none when empty), so a resume
/// re-runs the cell and `pmsbsim repro=` can re-run it solo. Best effort:
/// without the file a resume re-runs the cell anyway, and the report row
/// carries the diagnostic.
void keep_failed_record(const std::string& path, const SweepPoint& point,
                        RunRecord& rec) {
  if (path.empty()) return;
  rec.manifest_path = path;
  try {
    write_cell_record(path, point, rec);
  } catch (const std::exception&) {
    // Best effort, as above.
  }
}

/// In-process execution of one prepared cell: the original path. Crash
/// containment is limited to C++ exceptions — anything harder takes the
/// whole process down (that is what isolate=true is for). A completed cell
/// that cannot write its record fails.
RunRecord run_cell_in_process(const SweepPoint& point, const std::string& record_path) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    RunRecord rec = run_scenario(point, /*quiet=*/true);
    rec.wall_ms = ms_since(t0);
    if (!record_path.empty()) {
      rec.manifest_path = record_path;
      write_cell_record(record_path, point, rec);
    }
    return rec;
  } catch (const std::exception& e) {
    const bool timeout = dynamic_cast<const faults::WallBudgetExceeded*>(&e) != nullptr;
    RunRecord rec = failed_record(point, e.what(), timeout ? "timeout" : "throw");
    rec.wall_ms = ms_since(t0);
    keep_failed_record(record_path, point, rec);
    return rec;
  }
}

/// Supervised execution of one prepared cell: fork, cap, classify, retry
/// crash classes with exponential backoff, quarantine what keeps failing.
/// A completed child writes the cell's record itself; this reads it back.
RunRecord run_cell_supervised(const SweepPoint& point, const SweepConfig& config,
                              const std::string& record_path) {
  const auto t0 = std::chrono::steady_clock::now();
  CellLimits limits;
  limits.wall_s = config.cell_timeout_s;
  limits.mem_mb = config.cell_mem_mb;
  const std::size_t max_attempts = 1 + config.cell_retries;

  CellOutcome outcome;
  std::size_t attempts = 0;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config.retry_backoff_ms *
          static_cast<double>(1ull << (attempt - 2))));
      // A crashed child may have left a half-written record behind; the
      // retry must start from a clean slate so a success writes the one and
      // only record for this cell.
      std::error_code ec;
      std::filesystem::remove(record_path, ec);
    }
    attempts = attempt;
    outcome = run_cell_in_child(point, limits, static_cast<int>(attempt), record_path);
    if (outcome.exit_class == ExitClass::kOk ||
        !exit_class_retryable(outcome.exit_class)) {
      break;
    }
  }

  RunRecord rec;
  if (outcome.exit_class == ExitClass::kOk) {
    SalvageOutcome back = try_salvage_cell(record_path, point);
    if (back.record.has_value()) {
      rec = std::move(*back.record);
      rec.salvaged = false;  // the cell really executed — in a child
    } else {
      rec = failed_record(point,
                          "child exited cleanly but its record is unusable: " + back.reason,
                          "throw");
    }
  } else {
    rec = failed_record(point, outcome.error, exit_class_name(outcome.exit_class));
    rec.exit_signal = outcome.exit_signal;
    rec.exit_code = outcome.exit_code;
  }
  rec.attempts = attempts;
  rec.peak_rss_bytes = outcome.peak_rss_bytes;
  rec.wall_ms = ms_since(t0);
  if (!rec.ok) {
    // Graceful degradation: the cell is quarantined, the sweep completes.
    rec.quarantined = true;
    keep_failed_record(record_path, point, rec);
  }
  return rec;
}

}  // namespace

std::vector<RunRecord> run_sweep(const std::vector<SweepPoint>& points,
                                 const SweepConfig& config) {
  SweepConfig cfg = config;
  if (cfg.isolate && cfg.manifest_dir.empty()) {
    // Isolated results travel through record files, so conjure a private
    // directory when the caller did not name one. Kept after the sweep:
    // quarantined cells' records live there.
    const std::string pattern =
        (std::filesystem::temp_directory_path() / "pmsb_sweep_XXXXXX").string();
    std::vector<char> tmpl(pattern.begin(), pattern.end());
    tmpl.push_back('\0');
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("run_sweep: cannot create a temp record dir");
    }
    cfg.manifest_dir.assign(tmpl.data());
  }

  std::vector<RunRecord> records(points.size());
  std::atomic<std::size_t> completed{0};
  std::mutex print_mutex;
  parallel_for(points.size(), cfg.jobs, [&](std::size_t i) {
    SweepPoint point = points[i];
    prepare_point(point, cfg);
    std::string record_path;
    if (!cfg.manifest_dir.empty()) {
      record_path =
          cfg.manifest_dir + "/" + manifest_file_name(point.index, points.size());
    }

    std::string rerun_reason;
    if (cfg.resume && !record_path.empty()) {
      SalvageOutcome salvage = try_salvage_cell(record_path, point);
      if (salvage.record.has_value()) {
        records[i] = std::move(*salvage.record);
      } else {
        rerun_reason = std::move(salvage.reason);
      }
    }

    if (!records[i].salvaged) {
      if (cfg.on_cell_run) cfg.on_cell_run(point.index);
      records[i] = cfg.isolate ? run_cell_supervised(point, cfg, record_path)
                               : run_cell_in_process(point, record_path);
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
    write_row_fields(w, r);
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
