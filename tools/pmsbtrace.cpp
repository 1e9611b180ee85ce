// pmsbtrace — offline analysis over pmsbsim's observability artifacts.
//
//   pmsbtrace flow    spans.ndjson  [flow=N] [timeline=K]
//   pmsbtrace port    trace.ndjson  [bucket_us=100] [heatmap_csv=PATH]
//   pmsbtrace profile profile.json  [top=10] [diff=B.json]
//
// `flow` decomposes a sampled flow's completion time into sender /
// queueing / serialization / propagation / receiver / loss-recovery
// segments from its packet-lifecycle spans (pmsbsim trace_flows= +
// spans_ndjson=). Without flow= it summarizes every flow in the file.
//
// `port` aggregates one port's spans — a port capture (pmsbsim
// trace_ndjson=), or a span file whose port spans all come from one node:
// event counts, time-weighted occupancy percentiles, enqueue->mark latency
// percentiles, and an optional per-queue enqueue heatmap CSV. Port spans
// from several nodes exit 2 rather than mix ports.
//
// `profile` ranks a pmsb.profile/1 document's scopes by self wall time
// (the input may also be a run manifest or sweep cell record with an
// embedded profile); with diff= it compares two documents side by side —
// the profile-first optimisation workflow in docs/OBSERVABILITY.md.
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "stats/table.hpp"
#include "trace/analysis.hpp"

using namespace pmsb;
using pmsb::experiments::Options;

namespace {

void print_usage() {
  std::printf(
      "usage: pmsbtrace <flow|port|profile> <file> [key=value ...]\n"
      "  flow    spans.ndjson   [flow=N] [timeline=K]\n"
      "          per-flow FCT delay breakdown; timeline=K prints the\n"
      "          first K spans of the flow's timeline\n"
      "  port    trace.ndjson   [bucket_us=100] [heatmap_csv=PATH]\n"
      "          one port's spans (pmsbsim trace_ndjson=): occupancy +\n"
      "          mark-latency percentiles; optional per-queue enqueue\n"
      "          heatmap CSV\n"
      "  profile profile.json   [top=10] [diff=B.json]\n"
      "          top-N hotspots by self wall time; diff= compares two\n"
      "          pmsb.profile/1 documents (run manifests and sweep cell\n"
      "          records also accepted)\n");
}

std::string fmt_ms(std::uint64_t ns) {
  return stats::Table::num(static_cast<double>(ns) * 1e-6, 3);
}

std::string fmt_us(sim::TimeNs ns) {
  return stats::Table::num(static_cast<double>(ns) * 1e-3, 2);
}

void print_breakdown(const trace::FlowBreakdown& b) {
  std::printf("flow %llu: %zu spans, %zu packets, %zu marks, %zu drops, "
              "%zu retransmits\n",
              static_cast<unsigned long long>(b.flow), b.num_spans, b.packets,
              b.marks, b.drops, b.retransmits);
  const sim::TimeNs fct = b.end_ns - b.start_ns;
  std::printf("span %s us -> %s us (%s us total)\n", fmt_us(b.start_ns).c_str(),
              fmt_us(b.end_ns).c_str(), fmt_us(fct).c_str());
  stats::Table table({"component", "time(us)", "share"});
  for (const auto& [component, ns] : b.by_component) {
    const double share =
        fct > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(fct) : 0.0;
    table.add_row({component, fmt_us(ns), stats::Table::num(share, 1) + "%"});
  }
  table.print();
}

int cmd_flow(const std::string& path, const Options& opts) {
  opts.validate_keys({"flow", "timeline"});
  const auto spans = trace::read_spans_ndjson(path);
  if (spans.empty()) {
    std::fprintf(stderr, "pmsbtrace: %s holds no spans\n", path.c_str());
    return 1;
  }
  if (!opts.has("flow")) {
    // Summarize every flow so the user can pick one to drill into.
    stats::Table table({"flow", "spans", "fct(us)", "queueing(us)", "marks",
                        "retx"});
    for (const net::FlowId f : trace::flows_in(spans)) {
      const auto b = trace::analyze_flow(spans, f);
      const auto queueing = b.by_component.count("queueing")
                                ? b.by_component.at("queueing")
                                : 0;
      table.add_row({std::to_string(f), std::to_string(b.num_spans),
                     fmt_us(b.end_ns - b.start_ns), fmt_us(queueing),
                     std::to_string(b.marks), std::to_string(b.retransmits)});
    }
    table.print();
    std::printf("rerun with flow=N for a breakdown\n");
    return 0;
  }
  const auto flow = static_cast<net::FlowId>(
      opts.get_uint("flow", 0, 0, std::numeric_limits<net::FlowId>::max()));
  const auto b = trace::analyze_flow(spans, flow);
  print_breakdown(b);
  const std::size_t limit = opts.get_uint("timeline", 0);
  if (limit > 0) {
    stats::Table table({"t(us)", "phase", "node", "packet", "seq", "flags"});
    std::size_t shown = 0;
    for (const trace::Span& s : b.timeline) {
      if (shown++ == limit) break;
      std::string flags;
      if (s.marked) flags += "M";
      if (s.retransmit) flags += "R";
      table.add_row({fmt_us(s.time), trace::span_phase_name(s.phase), s.node,
                     std::to_string(s.packet), std::to_string(s.seq), flags});
    }
    table.print();
    if (b.timeline.size() > limit) {
      std::printf("... %zu more spans (raise timeline=)\n",
                  b.timeline.size() - limit);
    }
  }
  return 0;
}

int cmd_port(const std::string& path, const Options& opts) {
  opts.validate_keys({"bucket_us", "heatmap_csv"});
  const auto spans = trace::read_spans_ndjson(path);
  const trace::PortReport r = trace::analyze_port(spans);
  if (r.events == 0) {
    std::fprintf(stderr, "pmsbtrace: %s holds no port spans\n", path.c_str());
    return 1;
  }
  std::printf("%zu events over %s us\n", r.events,
              stats::Table::num(r.duration_us, 1).c_str());
  stats::Table counts({"event", "count"});
  for (const auto& [event, n] : r.event_counts) {
    counts.add_row({event, std::to_string(n)});
  }
  counts.print();
  stats::Table occ({"occupancy(B)", "p50", "p90", "p99", "max"});
  occ.add_row({"time-weighted", stats::Table::num(r.occupancy_p50, 0),
               stats::Table::num(r.occupancy_p90, 0),
               stats::Table::num(r.occupancy_p99, 0),
               std::to_string(r.occupancy_max)});
  occ.print();
  if (r.marked_packets > 0) {
    std::printf("mark latency over %zu marked packets: p50 %s us, p99 %s us, "
                "max %s us\n",
                r.marked_packets, stats::Table::num(r.mark_latency_p50_us, 2).c_str(),
                stats::Table::num(r.mark_latency_p99_us, 2).c_str(),
                stats::Table::num(r.mark_latency_max_us, 2).c_str());
  } else {
    std::printf("no marked packets in capture\n");
  }
  if (opts.has("heatmap_csv")) {
    const double bucket_us = opts.get_double("bucket_us", 100.0);
    const std::string csv = trace::port_heatmap_csv(spans, bucket_us);
    std::ofstream out(opts.get("heatmap_csv"));
    if (!out) {
      throw std::runtime_error("cannot open " + opts.get("heatmap_csv"));
    }
    out << csv;
    std::printf("wrote %s (bucket %s us)\n", opts.get("heatmap_csv").c_str(),
                stats::Table::num(bucket_us, 1).c_str());
  }
  return 0;
}

int cmd_profile(const std::string& path, const Options& opts) {
  opts.validate_keys({"top", "diff"});
  const trace::ProfileDoc doc = trace::read_profile(path);
  const std::size_t top = opts.get_uint("top", 10);
  if (opts.has("diff")) {
    const trace::ProfileDoc after = trace::read_profile(opts.get("diff"));
    std::printf("dispatches: %llu -> %llu; dispatch wall: %s -> %s ms\n",
                static_cast<unsigned long long>(doc.dispatches),
                static_cast<unsigned long long>(after.dispatches),
                fmt_ms(doc.dispatch_wall_ns).c_str(),
                fmt_ms(after.dispatch_wall_ns).c_str());
    stats::Table table({"scope", "count a", "count b", "self a(ms)",
                        "self b(ms)", "delta(ms)"});
    std::size_t shown = 0;
    for (const trace::ProfileScopeDiff& d : trace::diff_profiles(doc, after)) {
      if (shown++ == top) break;
      const double delta = (static_cast<double>(d.self_b) -
                            static_cast<double>(d.self_a)) * 1e-6;
      table.add_row({d.name, std::to_string(d.count_a), std::to_string(d.count_b),
                     fmt_ms(d.self_a), fmt_ms(d.self_b),
                     stats::Table::num(delta, 3)});
    }
    table.print();
    return 0;
  }
  std::printf("kernel: %llu dispatches in %s ms wall; %llu scheduled, "
              "%llu cancelled, heap depth max %llu\n",
              static_cast<unsigned long long>(doc.dispatches),
              fmt_ms(doc.dispatch_wall_ns).c_str(),
              static_cast<unsigned long long>(doc.events_scheduled),
              static_cast<unsigned long long>(doc.events_cancelled),
              static_cast<unsigned long long>(doc.max_heap_depth));
  stats::Table table({"scope", "count", "self(ms)", "total(ms)", "self-share"});
  for (const trace::ProfileScopeEntry& s : trace::top_hotspots(doc, top)) {
    const double share =
        doc.dispatch_wall_ns > 0
            ? 100.0 * static_cast<double>(s.self_wall_ns) /
                  static_cast<double>(doc.dispatch_wall_ns)
            : 0.0;
    table.add_row({s.name, std::to_string(s.count), fmt_ms(s.self_wall_ns),
                   fmt_ms(s.total_wall_ns), stats::Table::num(share, 1) + "%"});
  }
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    print_usage();
    return argc == 2 && std::string(argv[1]) == "--help" ? 0 : 2;
  }
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  try {
    // argv[2] is positional; key=value options start at argv[3].
    const Options opts = Options::from_args(argc - 2, argv + 2);
    if (cmd == "flow") return cmd_flow(path, opts);
    if (cmd == "port") return cmd_port(path, opts);
    if (cmd == "profile") return cmd_profile(path, opts);
    std::fprintf(stderr, "pmsbtrace: unknown subcommand '%s'\n", cmd.c_str());
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmsbtrace: %s\n", e.what());
    return 2;
  }
}
