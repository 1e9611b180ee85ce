#include "telemetry/run_report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "telemetry/process_stats.hpp"

namespace pmsb::telemetry {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* build_git_describe() {
#ifdef PMSB_GIT_DESCRIBE
  return PMSB_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!items_.empty()) {
    if (items_.back() > 0) out_ += ',';
    ++items_.back();
  }
}

void JsonWriter::raw_string(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::flush() {
  if (sink_ == nullptr || out_.empty()) return;
  sink_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  items_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  items_.pop_back();
  spill();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  items_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  items_.pop_back();
  spill();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!items_.empty()) {
    if (items_.back() > 0) out_ += ',';
    ++items_.back();
  }
  raw_string(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  raw_string(v);
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ += std::isfinite(v) ? format_double(v) : "null";
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  spill();
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_ += json;
  spill();
  return *this;
}

RunManifest::RunManifest(std::string tool)
    : tool_(std::move(tool)), wall_start_ns_(wall_now_ns()) {}

void RunManifest::write_json(JsonWriter& w, const MetricsRegistry* registry) const {
  w.begin_object();
  w.key("schema").value("pmsb.run_manifest/1");
  w.key("tool").value(tool_);
  w.key("git").value(build_git_describe());
  w.key("seed").value(seed_);
  const double wall_s =
      static_cast<double>(wall_now_ns() - wall_start_ns_) * 1e-9;
  w.key("wall_clock_s").value(wall_s);
  w.key("sim_time_us").value(sim_time_us_);
  w.key("peak_rss_bytes").value(peak_rss_bytes());
  const ProcessUsage usage = process_usage();
  w.key("utime_s").value(usage.utime_s);
  w.key("stime_s").value(usage.stime_s);
  w.key("major_page_faults").value(usage.major_page_faults);

  if (!profile_json_.empty()) {
    w.key("profile").raw_value(profile_json_);
  }

  w.key("config").begin_object();
  for (const auto& [k, v] : config_) w.key(k).value(v);
  w.end_object();

  w.key("info").begin_object();
  for (const auto& [k, v] : info_) w.key(k).value(v);
  w.end_object();

  w.key("results").begin_object();
  for (const auto& [k, v] : results_) w.key(k).value(v);
  w.end_object();

  w.key("metrics").begin_array();
  if (registry != nullptr) {
    registry->visit([&w](const MetricsRegistry::Instrument& m) {
      w.begin_object();
      w.key("name").value(m.name());
      w.key("kind").value(instrument_kind_name(m.kind()));
      if (!m.unit().empty()) w.key("unit").value(m.unit());
      w.key("labels").begin_object();
      m.for_each_label([&w](std::string_view k, std::string_view v) { w.key(k).value(v); });
      w.end_object();
      if (const Histogram* h = m.histogram()) {
        w.key("count").value(h->count());
        w.key("sum").value(h->sum());
        w.key("buckets").begin_array();
        for (std::size_t i = 0; i < h->num_buckets(); ++i) {
          w.begin_object();
          w.key("le");
          if (i + 1 == h->num_buckets()) {
            w.value("inf");
          } else {
            w.value(h->upper_bound(i));
          }
          w.key("count").value(h->bucket_count(i));
          w.end_object();
        }
        w.end_array();
      } else {
        w.key("value").value(m.value());
      }
      w.end_object();
    });
  }
  w.end_array();

  w.end_object();
}

std::string RunManifest::to_json(const MetricsRegistry* registry) const {
  JsonWriter w;
  write_json(w, registry);
  return w.str();
}

void RunManifest::write(const std::string& path, const MetricsRegistry* registry) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("RunManifest::write: cannot open " + path);
  {
    JsonWriter w(out);
    write_json(w, registry);
  }
  out << '\n';
  if (!out) throw std::runtime_error("RunManifest::write: cannot write " + path);
}

}  // namespace pmsb::telemetry
