#include "workload/flow_trace.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "telemetry/json_reader.hpp"
#include "telemetry/run_report.hpp"

namespace pmsb::workload {

namespace {

using telemetry::json::Value;

[[noreturn]] void fail(const std::string& path, std::size_t line,
                       const std::string& what) {
  throw std::runtime_error("flow_trace: " + path + ":" + std::to_string(line) + ": " +
                           what);
}

/// A JSON number token that is a non-negative integer (no '.', 'e', '-'),
/// parsed via the raw token so 64-bit values survive.
std::uint64_t u64_field(const Value& obj, const std::string& key,
                        const std::string& path, std::size_t line) {
  const Value& v = obj.object.at(key);
  if (!v.is_number() ||
      v.raw_number.find_first_not_of("0123456789") != std::string::npos) {
    fail(path, line, "field '" + key + "' must be a non-negative integer");
  }
  try {
    return std::stoull(v.raw_number);
  } catch (const std::exception&) {
    fail(path, line, "field '" + key + "' out of range");
  }
}

void check_keys(const Value& obj, const std::vector<std::string>& required,
                const std::vector<std::string>& optional, const std::string& path,
                std::size_t line) {
  for (const std::string& key : required) {
    if (obj.object.count(key) == 0) fail(path, line, "missing field '" + key + "'");
  }
  for (const auto& [key, value] : obj.object) {
    bool known = false;
    for (const std::string& k : required) known = known || k == key;
    for (const std::string& k : optional) known = known || k == key;
    if (!known) fail(path, line, "unknown field '" + key + "'");
  }
}

}  // namespace

void write_flow_trace(const std::string& path, std::size_t num_hosts,
                      const std::vector<FlowSpec>& flows) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("flow_trace: cannot open " + path);
  // Keys in sorted order, matching the JSON writers elsewhere, so a trace
  // round-trips byte-stably through telemetry::json.
  telemetry::JsonWriter header;
  header.begin_object();
  header.key("flows").value(static_cast<std::uint64_t>(flows.size()));
  header.key("hosts").value(static_cast<std::uint64_t>(num_hosts));
  header.key("schema").value(kFlowTraceSchema);
  header.end_object();
  out << header.str() << '\n';
  for (const FlowSpec& f : flows) {
    const bool grouped = f.group != stats::kNoGroupId;
    telemetry::JsonWriter w;
    w.begin_object();
    if (f.deadline > 0) w.key("deadline_ns").value(f.deadline);
    w.key("dst").value(static_cast<std::uint64_t>(f.dst));
    if (grouped) w.key("group").value(static_cast<std::uint64_t>(f.group));
    w.key("pattern").value(stats::pattern_tag_name(f.pattern));
    w.key("service").value(static_cast<std::uint64_t>(f.service));
    w.key("size_bytes").value(f.bytes);
    w.key("src").value(static_cast<std::uint64_t>(f.src));
    if (grouped) w.key("stage").value(static_cast<std::uint64_t>(f.stage));
    w.key("start_time_ns").value(f.start);
    w.end_object();
    out << w.str() << '\n';
  }
  if (!out) throw std::runtime_error("flow_trace: write failed for " + path);
}

FlowTrace read_flow_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("flow_trace: cannot open " + path);

  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(in, line)) fail(path, 1, "empty file (missing header)");
  ++line_no;
  Value header;
  try {
    header = telemetry::json::parse(line);
  } catch (const std::exception& e) {
    fail(path, line_no, e.what());
  }
  if (!header.is_object()) fail(path, line_no, "header must be an object");
  check_keys(header, {"flows", "hosts", "schema"}, {}, path, line_no);
  const Value& schema = header.object.at("schema");
  if (!schema.is_string() || schema.string != kFlowTraceSchema) {
    fail(path, line_no, std::string("expected schema ") + kFlowTraceSchema);
  }
  FlowTrace trace;
  trace.num_hosts = static_cast<std::size_t>(u64_field(header, "hosts", path, line_no));
  if (trace.num_hosts < 2) fail(path, line_no, "hosts must be >= 2");
  const std::uint64_t declared_flows = u64_field(header, "flows", path, line_no);

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) fail(path, line_no, "blank line inside trace");
    Value obj;
    try {
      obj = telemetry::json::parse(line);
    } catch (const std::exception& e) {
      fail(path, line_no, e.what());
    }
    if (!obj.is_object()) fail(path, line_no, "flow line must be an object");
    check_keys(obj, {"src", "dst", "size_bytes", "start_time_ns"},
               {"service", "pattern", "deadline_ns", "group", "stage"}, path, line_no);

    FlowSpec spec;
    const std::uint64_t src = u64_field(obj, "src", path, line_no);
    const std::uint64_t dst = u64_field(obj, "dst", path, line_no);
    if (src >= trace.num_hosts) fail(path, line_no, "src out of range");
    if (dst >= trace.num_hosts) fail(path, line_no, "dst out of range");
    if (src == dst) fail(path, line_no, "src == dst");
    spec.src = static_cast<net::HostId>(src);
    spec.dst = static_cast<net::HostId>(dst);
    spec.bytes = u64_field(obj, "size_bytes", path, line_no);
    if (spec.bytes == 0) fail(path, line_no, "size_bytes must be > 0");
    const std::uint64_t start = u64_field(obj, "start_time_ns", path, line_no);
    if (start > static_cast<std::uint64_t>(std::numeric_limits<sim::TimeNs>::max())) {
      fail(path, line_no, "start_time_ns out of range");
    }
    spec.start = static_cast<sim::TimeNs>(start);

    spec.pattern = stats::PatternTag::kTrace;
    if (obj.object.count("pattern") > 0) {
      const Value& p = obj.object.at("pattern");
      if (!p.is_string() || !stats::parse_pattern_tag(p.string, &spec.pattern)) {
        fail(path, line_no, "unknown pattern '" + p.string + "'");
      }
    }
    if (obj.object.count("service") > 0) {
      const std::uint64_t service = u64_field(obj, "service", path, line_no);
      if (service > 255) fail(path, line_no, "service out of range");
      spec.service = static_cast<net::ServiceId>(service);
    }
    if (obj.object.count("deadline_ns") > 0) {
      const std::uint64_t deadline = u64_field(obj, "deadline_ns", path, line_no);
      if (deadline == 0 ||
          deadline > static_cast<std::uint64_t>(std::numeric_limits<sim::TimeNs>::max())) {
        fail(path, line_no, "deadline_ns out of range");
      }
      spec.deadline = static_cast<sim::TimeNs>(deadline);
    }
    if (obj.object.count("group") > 0) {
      const std::uint64_t group = u64_field(obj, "group", path, line_no);
      if (group >= stats::kNoGroupId) fail(path, line_no, "group out of range");
      spec.group = static_cast<std::uint32_t>(group);
    }
    if (obj.object.count("stage") > 0) {
      if (obj.object.count("group") == 0) {
        fail(path, line_no, "stage without group");
      }
      const std::uint64_t stage = u64_field(obj, "stage", path, line_no);
      if (stage > std::numeric_limits<std::uint16_t>::max()) {
        fail(path, line_no, "stage out of range");
      }
      spec.stage = static_cast<std::uint16_t>(stage);
    }
    trace.flows.push_back(spec);
  }

  if (trace.flows.size() != declared_flows) {
    std::ostringstream why;
    why << "header declares " << declared_flows << " flows but file holds "
        << trace.flows.size();
    fail(path, line_no, why.str());
  }
  return trace;
}

}  // namespace pmsb::workload
