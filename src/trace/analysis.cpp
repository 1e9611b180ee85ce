#include "trace/analysis.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/json_reader.hpp"
#include "telemetry/run_report.hpp"

namespace pmsb::trace {

namespace json = telemetry::json;

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw std::runtime_error(origin + ": " + what);
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) fail(path, "read failed");
  return buf.str();
}

[[nodiscard]] std::uint64_t as_u64(const json::Value& v) {
  if (!v.raw_number.empty()) return std::strtoull(v.raw_number.c_str(), nullptr, 10);
  return static_cast<std::uint64_t>(v.number);
}

[[nodiscard]] std::uint64_t u64_field(const json::Value& obj, const char* key,
                                      const std::string& origin) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    fail(origin, std::string("missing numeric field '") + key + "'");
  }
  return as_u64(*v);
}

[[nodiscard]] SpanPhase phase_from_name(const std::string& name,
                                        const std::string& origin) {
  for (std::size_t i = 0; i < kNumSpanPhases; ++i) {
    const auto phase = static_cast<SpanPhase>(i);
    if (name == span_phase_name(phase)) return phase;
  }
  fail(origin, "unknown span phase '" + name + "'");
}

/// Weighted percentile over (value, weight) samples: smallest value whose
/// cumulative weight reaches `q` of the total.
[[nodiscard]] double weighted_percentile(std::vector<std::pair<double, double>> samples,
                                         double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const auto& [v, w] : samples) total += w;
  if (total <= 0.0) return samples.back().first;
  double cum = 0.0;
  for (const auto& [v, w] : samples) {
    cum += w;
    if (cum >= q * total) return v;
  }
  return samples.back().first;
}

[[nodiscard]] double plain_percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace

std::vector<Span> parse_spans_ndjson(const std::string& text,
                                     const std::string& origin) {
  std::vector<Span> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = origin + ":" + std::to_string(lineno);
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError& e) {
      fail(where, e.what());
    }
    if (!v.is_object()) fail(where, "span line is not an object");
    Span s;
    s.time = static_cast<sim::TimeNs>(u64_field(v, "t_ns", where));
    const json::Value* phase = v.find("phase");
    if (phase == nullptr || !phase->is_string()) fail(where, "missing phase");
    s.phase = phase_from_name(phase->string, where);
    s.packet = u64_field(v, "packet", where);
    s.flow = u64_field(v, "flow", where);
    if (const json::Value* node = v.find("node"); node != nullptr && node->is_string()) {
      s.node = node->string;
    }
    s.queue = static_cast<std::size_t>(u64_field(v, "queue", where));
    s.seq = u64_field(v, "seq", where);
    s.size_bytes = static_cast<std::uint32_t>(u64_field(v, "size_bytes", where));
    if (const json::Value* m = v.find("marked"); m != nullptr && m->is_bool()) {
      s.marked = m->boolean;
    }
    if (const json::Value* r = v.find("retransmit"); r != nullptr && r->is_bool()) {
      s.retransmit = r->boolean;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Span> read_spans_ndjson(const std::string& path) {
  return parse_spans_ndjson(slurp(path), path);
}

const char* span_phase_component(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kSend:
    case SpanPhase::kAck: return "sender";
    case SpanPhase::kEnqueue:
    case SpanPhase::kMark: return "queueing";
    case SpanPhase::kDequeue: return "serialization";
    case SpanPhase::kLinkTx: return "propagation";
    case SpanPhase::kRx: return "receiver";
    case SpanPhase::kDrop: return "loss_recovery";
  }
  return "?";
}

FlowBreakdown analyze_flow(const std::vector<Span>& spans, net::FlowId flow) {
  FlowBreakdown out;
  out.flow = flow;
  for (const Span& s : spans) {
    if (s.flow == flow) out.timeline.push_back(s);
  }
  if (out.timeline.empty()) {
    throw std::runtime_error("analyze_flow: no spans for flow " +
                             std::to_string(flow));
  }
  // Stable: ties at one timestamp keep file (= record) order, so the
  // telescoping charge below follows causal order within a tick.
  std::stable_sort(out.timeline.begin(), out.timeline.end(),
                   [](const Span& a, const Span& b) { return a.time < b.time; });
  out.num_spans = out.timeline.size();
  out.start_ns = out.timeline.front().time;
  out.end_ns = out.timeline.back().time;
  std::unordered_set<std::uint64_t> packets;
  for (std::size_t i = 0; i < out.timeline.size(); ++i) {
    const Span& s = out.timeline[i];
    packets.insert(s.packet);
    if (s.phase == SpanPhase::kMark) ++out.marks;
    if (s.phase == SpanPhase::kDrop) ++out.drops;
    if (s.phase == SpanPhase::kSend && s.retransmit) ++out.retransmits;
    if (i + 1 < out.timeline.size()) {
      // Charge the interval to the phase that opened it.
      out.by_component[span_phase_component(s.phase)] +=
          out.timeline[i + 1].time - s.time;
    }
  }
  out.packets = packets.size();
  return out;
}

std::vector<net::FlowId> flows_in(const std::vector<Span>& spans) {
  std::vector<net::FlowId> out;
  for (const Span& s : spans) out.push_back(s.flow);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PortEvent> parse_trace_ndjson(const std::string& text,
                                          const std::string& origin) {
  std::vector<PortEvent> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = origin + ":" + std::to_string(lineno);
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError& e) {
      fail(where, e.what());
    }
    if (!v.is_object()) fail(where, "trace line is not an object");
    PortEvent e;
    const json::Value* t = v.find("t_us");
    if (t == nullptr || !t->is_number()) fail(where, "missing t_us");
    e.t_us = t->number;
    const json::Value* ev = v.find("event");
    if (ev == nullptr || !ev->is_string()) fail(where, "missing event");
    e.event = ev->string;
    e.packet = u64_field(v, "packet", where);
    e.flow = u64_field(v, "flow", where);
    e.queue = static_cast<std::size_t>(u64_field(v, "queue", where));
    e.port_bytes = u64_field(v, "port_bytes", where);
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<PortEvent> read_trace_ndjson(const std::string& path) {
  return parse_trace_ndjson(slurp(path), path);
}

PortReport analyze_port(const std::vector<PortEvent>& events) {
  PortReport out;
  if (events.empty()) return out;
  out.duration_us = events.back().t_us - events.front().t_us;
  std::vector<std::pair<double, double>> occupancy;  // (bytes, held-for us)
  std::map<std::uint64_t, double> enqueue_at;        // packet -> enqueue t_us
  std::vector<double> mark_latencies;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const PortEvent& e = events[i];
    ++out.event_counts[e.event];
    out.occupancy_max = std::max(out.occupancy_max, e.port_bytes);
    if (i + 1 < events.size()) {
      occupancy.emplace_back(static_cast<double>(e.port_bytes),
                             events[i + 1].t_us - e.t_us);
    }
    if (e.event == "enqueue") {
      enqueue_at[e.packet] = e.t_us;
    } else if (e.event == "mark") {
      // Enqueue-marked packets trace the mark before (or at the same tick
      // as) their enqueue: no earlier enqueue record means latency 0.
      const auto it = enqueue_at.find(e.packet);
      mark_latencies.push_back(it == enqueue_at.end() ? 0.0 : e.t_us - it->second);
    } else if (e.event == "dequeue" || e.event == "drop") {
      enqueue_at.erase(e.packet);
    }
  }
  out.occupancy_p50 = weighted_percentile(occupancy, 0.50);
  out.occupancy_p90 = weighted_percentile(occupancy, 0.90);
  out.occupancy_p99 = weighted_percentile(occupancy, 0.99);
  out.marked_packets = mark_latencies.size();
  out.mark_latency_p50_us = plain_percentile(mark_latencies, 0.50);
  out.mark_latency_p99_us = plain_percentile(mark_latencies, 0.99);
  if (!mark_latencies.empty()) {
    out.mark_latency_max_us =
        *std::max_element(mark_latencies.begin(), mark_latencies.end());
  }
  return out;
}

std::string port_heatmap_csv(const std::vector<PortEvent>& events,
                             double bucket_us) {
  if (bucket_us <= 0.0) {
    throw std::invalid_argument("port_heatmap_csv: bucket_us must be positive");
  }
  std::size_t num_queues = 0;
  double t0 = events.empty() ? 0.0 : events.front().t_us;
  for (const PortEvent& e : events) {
    num_queues = std::max(num_queues, e.queue + 1);
    t0 = std::min(t0, e.t_us);
  }
  // bucket -> per-queue enqueue counts
  std::map<std::size_t, std::vector<std::uint64_t>> grid;
  for (const PortEvent& e : events) {
    if (e.event != "enqueue") continue;
    const auto bucket = static_cast<std::size_t>((e.t_us - t0) / bucket_us);
    auto& row = grid[bucket];
    row.resize(num_queues, 0);
    ++row[e.queue];
  }
  std::ostringstream out;
  out << "time_us";
  for (std::size_t q = 0; q < num_queues; ++q) out << ",q" << q;
  out << '\n';
  for (const auto& [bucket, row] : grid) {
    out << telemetry::format_double(t0 + static_cast<double>(bucket) * bucket_us);
    for (std::size_t q = 0; q < num_queues; ++q) {
      out << ',' << (q < row.size() ? row[q] : 0);
    }
    out << '\n';
  }
  return out.str();
}

ProfileDoc parse_profile(const std::string& text, const std::string& origin) {
  json::Value root;
  try {
    root = json::parse(text);
  } catch (const json::ParseError& e) {
    fail(origin, e.what());
  }
  if (!root.is_object()) fail(origin, "document is not an object");
  // A run manifest or sweep cell record embeds its profile.
  const json::Value* doc = root.find("profile");
  if (doc == nullptr) doc = &root;
  const json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "pmsb.profile/1") {
    fail(origin, "not a pmsb.profile/1 document");
  }
  const json::Value* kernel = doc->find("kernel");
  if (kernel == nullptr || !kernel->is_object()) fail(origin, "missing kernel section");
  ProfileDoc out;
  out.dispatches = u64_field(*kernel, "dispatches", origin);
  out.dispatch_wall_ns = u64_field(*kernel, "dispatch_wall_ns", origin);
  out.events_scheduled = u64_field(*kernel, "events_scheduled", origin);
  out.events_cancelled = u64_field(*kernel, "events_cancelled", origin);
  out.max_heap_depth = u64_field(*kernel, "max_heap_depth", origin);
  out.packet_ids_allocated = u64_field(*kernel, "packet_ids_allocated", origin);
  // Backend fields arrived with the sched_queue knob; older documents lack
  // them, so both parse as optional.
  if (const json::Value* qb = kernel->find("queue_backend")) {
    if (!qb->is_string()) fail(origin, "queue_backend is not a string");
    out.queue_backend = qb->string;
  }
  if (kernel->find("queue_compactions") != nullptr) {
    out.queue_compactions = u64_field(*kernel, "queue_compactions", origin);
  }
  if (const json::Value* scopes = doc->find("scopes")) {
    if (!scopes->is_array()) fail(origin, "scopes is not an array");
    for (const json::Value& s : scopes->array) {
      if (!s.is_object()) fail(origin, "scope entry is not an object");
      ProfileScopeEntry e;
      const json::Value* name = s.find("name");
      if (name == nullptr || !name->is_string()) fail(origin, "scope without name");
      e.name = name->string;
      e.count = u64_field(s, "count", origin);
      e.self_wall_ns = u64_field(s, "self_wall_ns", origin);
      e.total_wall_ns = u64_field(s, "total_wall_ns", origin);
      out.scopes.push_back(std::move(e));
    }
  }
  return out;
}

ProfileDoc read_profile(const std::string& path) {
  return parse_profile(slurp(path), path);
}

std::vector<ProfileScopeEntry> top_hotspots(const ProfileDoc& doc, std::size_t n) {
  std::vector<ProfileScopeEntry> out = doc.scopes;
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfileScopeEntry& a, const ProfileScopeEntry& b) {
                     return a.self_wall_ns > b.self_wall_ns;
                   });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<ProfileScopeDiff> diff_profiles(const ProfileDoc& a,
                                            const ProfileDoc& b) {
  std::map<std::string, ProfileScopeDiff> merged;
  for (const ProfileScopeEntry& e : a.scopes) {
    ProfileScopeDiff& d = merged[e.name];
    d.name = e.name;
    d.count_a = e.count;
    d.self_a = e.self_wall_ns;
  }
  for (const ProfileScopeEntry& e : b.scopes) {
    ProfileScopeDiff& d = merged[e.name];
    d.name = e.name;
    d.count_b = e.count;
    d.self_b = e.self_wall_ns;
  }
  std::vector<ProfileScopeDiff> out;
  out.reserve(merged.size());
  for (auto& [name, d] : merged) out.push_back(std::move(d));
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfileScopeDiff& x, const ProfileScopeDiff& y) {
                     const auto dx = x.self_b > x.self_a ? x.self_b - x.self_a
                                                        : x.self_a - x.self_b;
                     const auto dy = y.self_b > y.self_a ? y.self_b - y.self_a
                                                        : y.self_a - y.self_b;
                     return dx > dy;
                   });
  return out;
}

}  // namespace pmsb::trace
