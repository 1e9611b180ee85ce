#include "telemetry/run_report.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/process_stats.hpp"

namespace pmsb::telemetry {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Room for any "%.17g" text or 64-bit integer.
constexpr std::size_t kNumberChars = 32;

/// Writes `v` as "%.17g" would into `buf`; returns the length. A double
/// that holds an integer of magnitude below 2^53 takes the integer path:
/// "%.17g" writes such a value as its plain digits (16 at most, so never an
/// exponent). -0.0, fractions, larger values and non-finite ones take
/// "%.17g" itself.
std::size_t write_double(char (&buf)[kNumberChars], double v) {
  constexpr double kExactIntegers = 9007199254740992.0;  // 2^53
  if (v > -kExactIntegers && v < kExactIntegers) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      return static_cast<std::size_t>(std::to_chars(buf, buf + kNumberChars, i).ptr - buf);
    }
  }
  return static_cast<std::size_t>(std::snprintf(buf, kNumberChars, "%.17g", v));
}

/// A JSON number: "%.17g" text, or null for a non-finite value.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[kNumberChars];
  out.append(buf, write_double(buf, v));
}

template <class Int>
void append_integer(std::string& out, Int v) {
  char buf[kNumberChars];
  out.append(buf, std::to_chars(buf, buf + kNumberChars, v).ptr);
}

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Appends `s` as a quoted JSON string: the repo's one string escaper. The
/// run before the first byte that needs escaping goes in one append.
void append_string(std::string& out, std::string_view s) {
  out += '"';
  const auto plain = std::find_if(s.begin(), s.end(), needs_escape);
  out.append(s.begin(), plain);
  for (auto it = plain; it != s.end(); ++it) {
    const char c = *it;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Builds instruments' manifest objects: the bytes JsonWriter calls would
/// write, without their per-call bookkeeping. Export order groups an
/// instrument name's instruments, so the escaped text up to the labels is
/// built once per group.
class InstrumentText {
 public:
  /// The object for `m`, valid until the next call.
  std::string_view operator()(const MetricsRegistry::Instrument& m) {
    if (head_.empty() || m.name() != name_ || m.unit() != unit_ || m.kind() != kind_) {
      start_head(m);
    }
    text_.assign(head_);
    append_labels(m);
    if (const Histogram* h = m.histogram()) {
      text_ += R"(,"count":)";
      append_integer(text_, h->count());
      text_ += R"(,"sum":)";
      append_number(text_, h->sum());
      text_ += R"(,"buckets":[)";
      for (std::size_t i = 0; i < h->num_buckets(); ++i) {
        text_ += i == 0 ? R"({"le":)" : R"(,{"le":)";
        if (i + 1 == h->num_buckets()) {
          text_ += R"("inf")";
        } else {
          append_number(text_, h->upper_bound(i));
        }
        text_ += R"(,"count":)";
        append_integer(text_, h->bucket_count(i));
        text_ += '}';
      }
      text_ += "]}";
    } else {
      text_ += R"(,"value":)";
      append_number(text_, m.value());
      text_ += '}';
    }
    return text_;
  }

 private:
  /// `{"name":..,"kind":..,"unit":..,"labels":` for m's name, kind and unit.
  void start_head(const MetricsRegistry::Instrument& m) {
    name_ = m.name();
    unit_ = m.unit();
    kind_ = m.kind();
    head_.assign(R"({"name":)");
    append_string(head_, name_);
    head_ += R"(,"kind":")";
    head_ += instrument_kind_name(kind_);
    head_ += '"';
    if (!unit_.empty()) {
      head_ += R"(,"unit":)";
      append_string(head_, unit_);
    }
    head_ += R"(,"labels":)";
  }

  /// The labels object, `{"k":"v",...}` in key order.
  void append_labels(const MetricsRegistry::Instrument& m) {
    if (m.label_text().empty()) {
      text_ += "{}";
      return;
    }
    char open = '{';
    m.for_each_label([this, &open](std::string_view k, std::string_view v) {
      text_ += std::exchange(open, ',');
      append_string(text_, k);
      text_ += ':';
      append_string(text_, v);
    });
    text_ += '}';
  }

  std::string text_;
  std::string head_;
  std::string_view name_;
  std::string_view unit_;
  InstrumentKind kind_ = InstrumentKind::kCounter;
};

}  // namespace

std::string format_double(double v) {
  char buf[kNumberChars];
  return std::string(buf, write_double(buf, v));
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
  append_string(out_, k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  append_string(out_, v);
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  append_number(out_, v);
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  append_integer(out_, v);
  spill();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  append_integer(out_, v);
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
    InstrumentText text;
    registry->visit(
        [&w, &text](const MetricsRegistry::Instrument& m) { w.raw_value(text(m)); });
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
  // Unbuffered: the writer's chunks are the only copy, each one write.
  std::ofstream out;
  out.rdbuf()->pubsetbuf(nullptr, 0);
  out.open(path);
  if (!out) throw std::runtime_error("RunManifest::write: cannot open " + path);
  {
    JsonWriter w(out);
    write_json(w, registry);
  }
  out << '\n';
  if (!out) throw std::runtime_error("RunManifest::write: cannot write " + path);
}

}  // namespace pmsb::telemetry
