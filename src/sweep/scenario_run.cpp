#include "sweep/scenario_run.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/watchdog.hpp"
#include "regress/digest.hpp"
#include "sim/rng.hpp"
#include "sim/units.hpp"
#include "stats/csv.hpp"
#include "stats/rtt_recorder.hpp"
#include "sweep/crash_inject.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process_stats.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"
#include "trace/spans.hpp"
#include "analysis/oscillation.hpp"
#include "workload/coflow.hpp"
#include "workload/flow_trace.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::sweep {

namespace {

using namespace pmsb::experiments;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(',', start);
    if (pos == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    if (pos > start) out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

/// A duration key counted in `unit`s. Negative values, and values whose time
/// plus `headroom` would not fit in sim::TimeNs, throw naming the key.
sim::TimeNs get_duration(const Options& opts, const std::string& key,
                         std::uint64_t fallback, sim::TimeNs unit,
                         sim::TimeNs headroom = 0) {
  const auto max = static_cast<std::uint64_t>(
      (std::numeric_limits<sim::TimeNs>::max() - headroom) / unit);
  return static_cast<sim::TimeNs>(opts.get_uint(key, fallback, 0, max)) * unit;
}

/// A microsecond key read as a real number (`rtt_us=85.2`). Values below
/// `min`, and values whose nanoseconds would not fit sim::TimeNs, throw
/// naming the key.
double get_us(const Options& opts, const std::string& key, double fallback,
              double min = 0.0) {
  return opts.get_double(key, fallback, min, sim::kMaxMicrosecondsF);
}

/// The sampling period: at least 1 ns, the least a sampler can tick by.
sim::TimeNs sample_period(const Options& opts) {
  return sim::microseconds_f(get_us(opts, "sample_period_us", 100.0, 1e-3));
}

/// Optional telemetry wiring shared by both topologies: a metrics registry +
/// run manifest when `metrics_json=` is given, a time-series sampler when
/// `timeseries_csv=` is given, a kernel/component profiler when `profile=1`
/// or `profile_json=` is given, packet-lifecycle span capture when
/// `trace_flows=` and `spans_ndjson=` are given, and a capture of every
/// flow's spans at the trace port when `trace_ndjson=` is given.
/// Constructing it starts the wall clock.
struct RunTelemetry {
  explicit RunTelemetry(const Options& opts, bool quiet_run)
      : metrics_path(opts.get("metrics_json")),
        ts_path(opts.get("timeseries_csv")),
        period(sample_period(opts)),
        profile_path(opts.get("profile_json")),
        spans_path(opts.get("spans_ndjson")),
        trace_path(opts.get("trace_ndjson")),
        quiet(quiet_run) {
    manifest.set_config(opts.values());
    if (opts.get_bool("profile", false) || !profile_path.empty()) {
      profiler = std::make_unique<telemetry::Profiler>();
    }
    const std::string watch = opts.get("trace_flows");
    if (!watch.empty()) {
      spans = std::make_unique<trace::SpanTracer>();
      if (watch == "all") {
        spans->watch_all();
      } else {
        // Transport flow ids are 1-based.
        for (const std::uint64_t flow : opts.get_uint_list(
                 "trace_flows", 1, std::numeric_limits<net::FlowId>::max())) {
          spans->watch_flow(static_cast<net::FlowId>(flow));
        }
      }
    }
    if (spans && spans_path.empty()) {
      throw std::invalid_argument(
          "trace_flows= needs spans_ndjson= (the spans would never be written)");
    }
    if (!spans && !spans_path.empty()) {
      throw std::invalid_argument(
          "spans_ndjson= needs trace_flows= (nothing would be captured)");
    }
  }

  /// Binds the scenario's instruments and starts the sampler. Call once the
  /// scenario has its flows (per-flow instruments bind at call time).
  void attach(Fabric& fab) {
    if (!metrics_path.empty()) {
      telemetry::bind_simulator_metrics(registry, fab.simulator());
      registry.gauge_fn("process.peak_rss_bytes", {}, [] {
        return static_cast<double>(telemetry::peak_rss_bytes());
      }, "bytes");
      fab.bind_metrics(registry);
    }
    if (profiler) fab.install_profiler(*profiler);
    if (spans) fab.install_span_tracer(*spans);
    if (!trace_path.empty()) {
      // Post-mortems want the tail of the port's event stream, so ring mode.
      port_capture = std::make_unique<trace::SpanTracer>(
          1'000'000, trace::OverflowPolicy::kRingBuffer);
      port_capture->watch_all();
      const TracePort port = fab.trace_port();
      port.port.add_observer(port_capture.get(), port_capture->intern_node(port.node));
    }
    if (!ts_path.empty()) {
      sampler = std::make_unique<telemetry::TimeSeriesSampler>(fab.simulator(), period);
      fab.add_sampler_columns(*sampler);
      sampler->add_probe("process.peak_rss_bytes", [] {
        return static_cast<double>(telemetry::peak_rss_bytes());
      });
      // Stream rows as they are sampled so a watchdog trip leaves a usable
      // CSV behind instead of an empty file.
      sampler->stream_to(ts_path);
      sampler->start();
    }
  }

  /// Folds profiler / span / trace output into the record and manifest.
  /// Call after the run, before the record results are mirrored into the
  /// manifest. Only deterministic scalars go into rec.results — wall-clock
  /// times would make sweep reports run-to-run unstable; the profile's
  /// timings ride in rec.profile, outside the signature.
  void finalize_observability(RunRecord& rec) {
    if (profiler) {
      rec.profile = profiler->to_json();
      manifest.set_profile_json(rec.profile);
      if (!profile_path.empty()) {
        std::ofstream out(profile_path);
        if (!out) {
          throw std::runtime_error("cannot open profile_json path " + profile_path);
        }
        out << rec.profile << '\n';
        if (!quiet) std::printf("wrote %s\n", profile_path.c_str());
      }
      rec.results["profile.dispatches"] = static_cast<double>(profiler->dispatches());
      rec.results["profile.events_scheduled"] =
          static_cast<double>(profiler->events_scheduled());
    }
    if (spans) {
      spans->write_ndjson(spans_path);
      if (!quiet) {
        std::printf("wrote %s (%zu spans, %llu overflow)\n", spans_path.c_str(),
                    spans->size(), static_cast<unsigned long long>(spans->overflow()));
      }
    }
    if (port_capture) {
      port_capture->write_ndjson(trace_path);
      if (!quiet) {
        std::printf("wrote %s (%zu events)\n", trace_path.c_str(), port_capture->size());
      }
    }
  }

  void finish(double sim_time_us) {
    if (sampler) {
      if (!quiet) {
        std::printf("wrote %s (%zu samples x %zu columns)\n", ts_path.c_str(),
                    sampler->rows(), sampler->num_columns());
      }
    }
    if (!metrics_path.empty()) {
      manifest.set_sim_time_us(sim_time_us);
      manifest.write(metrics_path, &registry);
      if (!quiet) {
        std::printf("wrote %s (%zu instruments)\n", metrics_path.c_str(),
                    registry.size());
      }
    }
  }

  std::string metrics_path;
  std::string ts_path;
  sim::TimeNs period;
  std::string profile_path;
  std::string spans_path;
  std::string trace_path;
  bool quiet;
  telemetry::MetricsRegistry registry;
  telemetry::RunManifest manifest{"pmsbsim"};
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
  std::unique_ptr<telemetry::Profiler> profiler;
  std::unique_ptr<trace::SpanTracer> spans;
  std::unique_ptr<trace::SpanTracer> port_capture;
};

/// Robustness wiring shared by both topologies: a FaultPlan built from the
/// `faults=` grammar plus the sweep-friendly `bleach=` sugar (grid values
/// cannot contain ':' or ',', so the headline bleach sweep gets its own
/// scalar key), an InvariantChecker (on by default; `invariants=0` opts
/// out), and the run guard, whose one tick runs the checker and trips on a
/// positive stall horizon, event budget or wall-clock budget
/// (`cell_timeout_s=`). A guard trip throws out of the event loop and fails
/// this cell alone.
///
/// Declare AFTER the scenario so it is destroyed first: the checker and
/// guard hold the scenario's simulator by reference.
struct Robustness {
  faults::FaultPlan plan;
  std::unique_ptr<faults::InvariantChecker> checker;
  /// Built when the checker is on or a budget is positive.
  std::unique_ptr<faults::Watchdog> guard;
  /// Set by a positive stall horizon or event budget. A run guarded by
  /// `cell_timeout_s=` alone binds no instrument, so its manifest lists the
  /// same ones as an unguarded run's; a zero budget arms nothing.
  bool watchdog_metrics = false;

  void install(Fabric& fab, const Options& opts,
               const std::vector<std::string>& default_bleach_nodes) {
    std::string spec = opts.get("faults");
    if (opts.get_double("bleach", 0.0) > 0.0) {
      std::vector<std::string> nodes = opts.has("bleach_at")
                                           ? split_csv(opts.get("bleach_at"))
                                           : default_bleach_nodes;
      for (const auto& node : nodes) {
        if (!spec.empty()) spec += ';';
        spec += "bleach:" + node + ":" + opts.get("bleach");
      }
    }
    if (!spec.empty()) {
      plan.add_spec_string(spec);
      // Decorrelate fault randomness from the workload stream.
      fab.install_faults(plan, run_seed(opts) ^ 0xfa17);
    }

    if (opts.get_bool("invariants", true)) {
      checker = std::make_unique<faults::InvariantChecker>(fab.simulator());
      fab.install_invariants(*checker);
      if (opts.get("fault_test") == "break_invariant") {
        // Deliberately unbalance the conservation ledger so tests can prove
        // a violation is caught and reported, not silently absorbed.
        fab.ledger().skew_injected_for_test(1);
      }
    }

    const faults::WatchdogConfig wcfg{
        .stall_horizon =
            get_duration(opts, "watchdog_horizon_ms", 0, sim::milliseconds(1)),
        .max_events = opts.get_uint("watchdog_events", 0),
        .wall_budget_s = opts.get_double("cell_timeout_s", 0.0)};
    watchdog_metrics = wcfg.stall_horizon > 0 || wcfg.max_events > 0;
    if (checker || watchdog_metrics || wcfg.wall_budget_s > 0.0) {
      guard = std::make_unique<faults::Watchdog>(
          fab.simulator(), checker.get(), wcfg, [&fab] { return fab.total_bytes_acked(); },
          [&fab] { return fab.all_complete(); }, [&fab] { return fab.progress_line(); });
    }

    if (opts.get("fault_test") == "wedge_callback") {
      // The cell_timeout_s blind spot made reproducible: the guard's tick
      // is itself a sim event, so a callback that never returns starves the
      // event loop and the wall budget can never trip. Only the isolate=1
      // supervisor's parent-side hard kill recovers from this shape.
      fab.simulator().schedule_in(sim::milliseconds(1), [] {
        volatile std::uint64_t spin = 0;
        for (;;) spin = spin + 1;
      });
    }
  }

  void bind(telemetry::MetricsRegistry& registry) {
    plan.bind_metrics(registry);
    if (checker) checker->bind_metrics(registry);
    if (watchdog_metrics) guard->bind_metrics(registry);
  }

  /// Final validation after the run: one last invariant pass, per-cell
  /// fault/invariant counters into the record, and a throw (failing this
  /// cell in isolation) if any invariant broke.
  void finalize(RunRecord& rec) {
    rec.results["faults.dropped"] = static_cast<double>(plan.dropped());
    rec.results["faults.bleached"] = static_cast<double>(plan.bleached());
    rec.results["faults.forwarded"] = static_cast<double>(plan.forwarded());
    if (checker) {
      checker->check_now();
      rec.results["invariants.evaluations"] = static_cast<double>(checker->evaluations());
      rec.results["invariants.violations"] =
          static_cast<double>(checker->total_violations());
    }
    if (checker && !checker->clean()) throw std::runtime_error(checker->summary());
  }
};

/// Offline stability analysis (`stability=1`): oscillation detection over
/// the run's sampled queue columns. Reuses the `timeseries_csv=` sampler
/// when one exists; otherwise runs a private in-memory sampler at
/// `sample_period_us` so the analysis needs no CSV side effect. Attach
/// before the run, finalize after — results land in `stability.*` columns.
struct StabilityPlane {
  bool enabled = false;
  std::size_t window = 0;  ///< `stability_window`, read before the run
  telemetry::TimeSeriesSampler* sampler = nullptr;
  std::unique_ptr<telemetry::TimeSeriesSampler> own;

  void attach(Fabric& fab, RunTelemetry& telemetry, const Options& opts) {
    enabled = opts.get_bool("stability", false);
    if (!enabled) return;
    // Half of 8 samples is the detector's shortest lag, 4: a shorter
    // window examines no lag at all.
    window = opts.get_uint("stability_window", 64, 8);
    if (telemetry.sampler != nullptr) {
      sampler = telemetry.sampler.get();
      sampler->keep_rows();  // finalize() reads them after the run
      return;
    }
    own = std::make_unique<telemetry::TimeSeriesSampler>(
        fab.simulator(), sample_period(opts));
    fab.add_sampler_columns(*own);
    own->start();
    sampler = own.get();
  }

  void finalize(RunRecord& rec) const {
    if (!enabled) return;
    const analysis::StabilityReport report = analysis::analyze_sampler(*sampler, window);
    rec.results["stability.ports_analyzed"] =
        static_cast<double>(report.ports_analyzed);
    rec.results["stability.oscillating_ports"] =
        static_cast<double>(report.oscillating_ports);
    rec.results["stability.dominant_period_us"] = report.dominant_period_us;
    rec.results["stability.amplitude_bytes"] = report.amplitude_bytes;
    rec.results["stability.max_autocorr"] = report.max_autocorr;
  }
};

/// One topology's build/report pair. The constructor builds the fabric and
/// its flows; run() drives it to the topology's horizon, prints its table
/// unless quiet, and records what only this topology measures.
class TopologyRun {
 public:
  TopologyRun() = default;
  virtual ~TopologyRun() = default;
  TopologyRun(const TopologyRun&) = delete;
  TopologyRun& operator=(const TopologyRun&) = delete;
  [[nodiscard]] virtual Fabric& fabric() = 0;
  virtual void run(const Options& opts, bool quiet, RunRecord& rec) = 0;
};

/// A topology's defaults for the shared keys, the keys only it reads, and
/// its build/report pair.
struct Topology {
  const char* name;
  std::int64_t queues;
  double rtt_us;
  double link_delay_us;
  std::uint64_t port_buffer_bytes;
  std::uint32_t init_cwnd_segments;       ///< 0 keeps the transport default
  std::vector<std::string> bleach_nodes;  ///< where `bleach=` lands by default
  std::vector<std::string> own_keys;
  std::unique_ptr<TopologyRun> (*build)(const Options& opts, const Topology& topo,
                                        RunRecord& rec);
};

/// Parses the shared keys into `cfg` with `topo`'s defaults, and records the
/// run's topology, scheme, scheduler and buffer policy in rec.info. PMSB(e)'s
/// sender knobs land on cfg.transport, so every flow inherits them;
/// `base_rtt` is the topology's unloaded RTT they are derived from.
void parse_shared_keys(const Options& opts, const Topology& topo,
                       sim::TimeNs (*base_rtt)(const FabricConfig&), FabricConfig& cfg,
                       RunRecord& rec) {
  cfg.queue = sim::parse_queue_backend(opts.get("sched_queue", "calendar"));
  // Queue indices travel as a ServiceId, and the leaf-spine's generators
  // count services in one.
  const std::size_t queues =
      opts.get_uint("queues", topo.queues, 1, std::numeric_limits<net::ServiceId>::max());
  cfg.scheduler.kind = sched::parse_scheduler_kind(opts.get("scheduler", "dwrr"));
  cfg.scheduler.num_queues = queues;
  cfg.scheduler.weights = opts.get_double_list("weights");
  if (cfg.scheduler.weights.empty()) cfg.scheduler.weights.assign(queues, 1.0);
  cfg.link_delay = sim::microseconds_f(topo.link_delay_us);
  cfg.buffer_bytes = topo.port_buffer_bytes;
  cfg.buffer_policy.kind =
      switchlib::parse_buffer_policy_kind(opts.get("buffer_policy", "static"));
  cfg.buffer_policy.dt_alpha = opts.get_double("dt_alpha", 1.0);
  cfg.shared_pool_bytes = opts.get_uint("buffer_bytes", 0);

  const Scheme scheme = parse_scheme(opts.get("scheme", "pmsb"));
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds_f(get_us(opts, "rtt_us", topo.rtt_us));
  params.weights = cfg.scheduler.weights;
  params.point = opts.get("mark_point", "enqueue") == "dequeue"
                     ? ecn::MarkPoint::kDequeue
                     : ecn::MarkPoint::kEnqueue;
  cfg.marking = make_scheme_marking(scheme, params);
  if (topo.init_cwnd_segments != 0) {
    cfg.transport.init_cwnd_segments = topo.init_cwnd_segments;
  }
  cfg.transport.max_cwnd_bytes = opts.get_uint(
      "max_cwnd_bytes", cfg.transport.max_cwnd_bytes, sim::kDefaultMssBytes);
  cfg.transport.d2tcp_enabled = opts.get_bool("d2tcp", false);
  apply_scheme_transport(scheme, params, base_rtt(cfg), cfg.transport);

  rec.info["topology"] = topo.name;
  rec.info["scheme"] = scheme_name(scheme);
  rec.info["scheduler"] = sched::scheduler_kind_name(cfg.scheduler.kind);
  rec.info["buffer_policy"] = switchlib::buffer_policy_kind_name(cfg.buffer_policy.kind);
}

/// Dumbbell: `flows_per_queue` long-lived flows per queue, a 10 ms warm-up,
/// then per-queue throughput and the RTT over `duration_ms`.
class DumbbellRun final : public TopologyRun {
 public:
  static std::unique_ptr<TopologyRun> build(const Options& opts, const Topology& topo,
                                            RunRecord& rec) {
    DumbbellConfig cfg;
    cfg.link_rate = sim::gbps(opts.get_uint(
        "link_gbps", 10, 1, std::numeric_limits<sim::RateBps>::max() / sim::gbps(1)));
    parse_shared_keys(opts, topo, &DumbbellScenario::base_rtt, cfg, rec);
    std::vector<double> flows_per_queue = opts.get_double_list("flows_per_queue");
    if (flows_per_queue.empty()) flows_per_queue.assign(cfg.scheduler.num_queues, 1.0);
    if (flows_per_queue.size() != cfg.scheduler.num_queues) {
      throw std::invalid_argument("flows_per_queue must have one entry per queue");
    }
    cfg.num_senders = 0;
    for (double f : flows_per_queue) cfg.num_senders += static_cast<std::size_t>(f);
    return std::make_unique<DumbbellRun>(cfg, std::move(flows_per_queue));
  }

  DumbbellRun(const DumbbellConfig& cfg, std::vector<double> flows_per_queue)
      : sc_(cfg), flows_per_queue_(std::move(flows_per_queue)) {
    std::size_t sender = 0;
    for (std::size_t q = 0; q < flows_per_queue_.size(); ++q) {
      for (std::size_t f = 0; f < static_cast<std::size_t>(flows_per_queue_[q]); ++f) {
        const auto idx =
            sc_.add_flow({.sender = sender++, .service = static_cast<net::ServiceId>(q)});
        sc_.flow(idx).sender().add_observer(&rtt_);
      }
    }
  }

  Fabric& fabric() override { return sc_; }

  void run(const Options& opts, bool quiet, RunRecord& rec) override {
    const std::size_t queues = flows_per_queue_.size();
    const auto duration =
        get_duration(opts, "duration_ms", 50, sim::milliseconds(1), kWarmup);
    const std::vector<double> gbps = sc_.queue_rates_gbps(kWarmup, kWarmup + duration);

    if (!quiet) {
      std::printf("dumbbell: %s + %s, %zu queues, %zu flows\n",
                  rec.info.at("scheme").c_str(), rec.info.at("scheduler").c_str(), queues,
                  sc_.num_flows());
    }
    stats::Table table({"queue", "flows", "tput(Gbps)"});
    for (std::size_t q = 0; q < queues; ++q) {
      table.add_row({std::to_string(q), stats::Table::num(flows_per_queue_[q], 0),
                     stats::Table::num(gbps[q])});
      rec.results["throughput_gbps.q" + std::to_string(q)] = gbps[q];
    }
    if (!quiet) {
      table.print();
      std::printf("rtt avg/p99: %.1f / %.1f us; marks: %llu; drops: %llu\n",
                  rtt_.us().mean(), rtt_.us().percentile(99),
                  static_cast<unsigned long long>(sc_.total_marks()),
                  static_cast<unsigned long long>(sc_.total_drops()));
    }
    rec.results["rtt_us.mean"] = rtt_.us().mean();
    rec.results["rtt_us.p99"] = rtt_.us().percentile(99);
    if (sc_.pool() != nullptr) {
      rec.results["buffer.pool_limit_bytes"] = static_cast<double>(sc_.pool()->limit());
      rec.results["buffer.free_pool_bytes_final"] =
          static_cast<double>(sc_.pool()->free_bytes());
    }
  }

 private:
  static constexpr sim::TimeNs kWarmup = sim::milliseconds(10);

  DumbbellScenario sc_;
  std::vector<double> flows_per_queue_;
  stats::RttRecorder rtt_{sim::milliseconds(5)};
};

/// Leaf-spine: a generated (poisson | coflow | rpc) or replayed workload run
/// to completion, then FCT, coflow and deadline results; writes `fct_csv=`
/// and `trace_export=`.
class LeafSpineRun final : public TopologyRun {
 public:
  static std::unique_ptr<TopologyRun> build(const Options& opts, const Topology& topo,
                                            RunRecord& rec) {
    LeafSpineConfig cfg;
    parse_shared_keys(opts, topo, &LeafSpineScenario::base_rtt_interrack, cfg, rec);
    return std::make_unique<LeafSpineRun>(opts, cfg);
  }

  LeafSpineRun(const Options& opts, const LeafSpineConfig& cfg) : sc_(cfg) {
    const auto services = static_cast<std::uint8_t>(cfg.scheduler.num_queues);
    const auto dist =
        workload::FlowSizeDistribution::by_name(opts.get("workload", "paper-mix"));
    sim::Rng rng(run_seed(opts));
    const std::string pattern = opts.get("pattern", "poisson");
    workload::Workload wl;
    if (opts.has("trace_file")) {
      // Replay mode: the trace IS the workload; generator keys are ignored.
      workload::FlowTrace trace = workload::read_flow_trace(opts.get("trace_file"));
      if (trace.num_hosts != sc_.num_hosts()) {
        throw std::invalid_argument(
            "trace_file: trace has " + std::to_string(trace.num_hosts) +
            " hosts but the fabric has " + std::to_string(sc_.num_hosts()));
      }
      wl.flows = std::move(trace.flows);
    } else if (pattern == "poisson") {
      workload::TrafficConfig tc;
      tc.num_hosts = sc_.num_hosts();
      tc.load = opts.get_double("load", 0.5);
      tc.num_flows = opts.get_uint("flows", 300);
      tc.num_services = services;
      wl.flows = workload::generate_poisson_traffic(tc, dist, rng);
    } else if (pattern == "coflow") {
      workload::CoflowConfig cc;
      cc.num_hosts = sc_.num_hosts();
      cc.num_coflows = opts.get_uint("coflows", 20);
      cc.num_mappers = opts.get_uint("mappers", 4);
      cc.num_reducers = opts.get_uint("reducers", 4);
      cc.num_stages = static_cast<std::uint16_t>(
          opts.get_uint("stages", 1, 0, std::numeric_limits<std::uint16_t>::max()));
      cc.mean_interarrival_us = get_us(opts, "coflow_gap_us", 1000.0);
      cc.num_services = services;
      wl = workload::generate_coflows(cc, dist, rng);
    } else if (pattern == "rpc") {
      workload::RpcConfig rc;
      rc.num_hosts = sc_.num_hosts();
      rc.num_rpcs = opts.get_uint("rpcs", 50);
      rc.fanout = opts.get_uint("fanout", 8);
      rc.response_bytes = opts.get_uint("rpc_bytes", 20'000, 1);
      rc.deadline = sim::microseconds_f(get_us(opts, "rpc_deadline_us", 2000.0));
      rc.mean_interarrival_us = get_us(opts, "rpc_gap_us", 500.0);
      rc.num_services = services;
      wl = workload::generate_rpc_fanout(rc, rng);
    } else {
      throw std::invalid_argument("unknown pattern '" + pattern + "'");
    }
    sc_.add_workload(std::move(wl));
  }

  Fabric& fabric() override { return sc_; }

  void run(const Options& opts, bool quiet, RunRecord& rec) override {
    const bool done =
        sc_.run_until_complete(get_duration(opts, "max_sim_s", 60, sim::seconds(1)));
    const stats::FctCollector& fct = sc_.fct();
    if (!quiet) {
      std::printf("leafspine: %s + %s, load %.2f, %zu/%zu flows done%s\n",
                  rec.info.at("scheme").c_str(), rec.info.at("scheduler").c_str(),
                  opts.get_double("load", 0.5), sc_.completed_flows(), sc_.total_flows(),
                  done ? "" : " (TIME CAP HIT)");
      stats::Table table({"bin", "count", "avg(us)", "p95(us)", "p99(us)"});
      auto add = [&](const char* name, const stats::Summary& s) {
        table.add_row({name, std::to_string(s.count()), stats::Table::num(s.mean(), 0),
                       stats::Table::num(s.percentile(95), 0),
                       stats::Table::num(s.percentile(99), 0)});
      };
      add("small", fct.fct_us(stats::SizeBin::kSmall));
      add("medium", fct.fct_us(stats::SizeBin::kMedium));
      add("large", fct.fct_us(stats::SizeBin::kLarge));
      add("overall", fct.overall_fct_us());
      table.print();
    }
    if (opts.has("fct_csv")) {
      stats::write_fct_csv(opts.get("fct_csv"), fct);
      if (!quiet) std::printf("wrote %s\n", opts.get("fct_csv").c_str());
    }
    if (opts.has("trace_export")) {
      // Realized starts (post-barrier), so a replay is timing-faithful — and
      // for static workloads, bit-identical by digest.
      workload::write_flow_trace(opts.get("trace_export"), sc_.num_hosts(),
                                 sc_.realized_workload());
      if (!quiet) std::printf("wrote %s\n", opts.get("trace_export").c_str());
    }

    rec.info["pattern"] =
        opts.has("trace_file") ? "trace" : opts.get("pattern", "poisson");
    rec.info["workload"] = opts.get("workload", "paper-mix");
    rec.info["all_flows_completed"] = done ? "true" : "false";
    rec.results["flows_completed"] = static_cast<double>(sc_.completed_flows());
    rec.results["flows_total"] = static_cast<double>(sc_.total_flows());
    auto record_fct = [&](const std::string& bin, const stats::Summary& s) {
      rec.results["fct_us." + bin + ".mean"] = s.mean();
      rec.results["fct_us." + bin + ".p95"] = s.percentile(95);
      rec.results["fct_us." + bin + ".p99"] = s.percentile(99);
    };
    record_fct("small", fct.fct_us(stats::SizeBin::kSmall));
    record_fct("medium", fct.fct_us(stats::SizeBin::kMedium));
    record_fct("large", fct.fct_us(stats::SizeBin::kLarge));
    record_fct("overall", fct.overall_fct_us());
    // Grouped-workload results: coflow completion time as a first-class
    // metric next to FCT, and the deadline outcome for the RPC/D2TCP path.
    // Only emitted when the workload carries groups/deadlines so plain
    // Poisson cells keep their historical column set.
    const stats::Summary cct = fct.group_ct_us();
    if (cct.count() > 0) {
      rec.results["coflow.cct_us.mean"] = cct.mean();
      rec.results["coflow.cct_us.p95"] = cct.percentile(95);
      rec.results["coflow.cct_us.p99"] = cct.percentile(99);
    }
    if (sc_.group_tracker() != nullptr) {
      rec.results["coflow.groups"] =
          static_cast<double>(sc_.group_tracker()->groups().size());
      rec.results["coflow.groups_completed"] =
          static_cast<double>(sc_.group_tracker()->groups_completed());
    }
    const stats::DeadlineStats deadlines = fct.deadline_stats();
    if (deadlines.total > 0) {
      rec.results["deadline.total"] = static_cast<double>(deadlines.total);
      rec.results["deadline.misses"] = static_cast<double>(deadlines.missed);
      rec.results["deadline.miss_fraction"] = deadlines.miss_fraction();
    }
  }

 private:
  LeafSpineScenario sc_;
};

const Topology kTopologies[] = {
    {.name = "dumbbell", .queues = 2, .rtt_us = 18.0, .link_delay_us = 2.0,
     .port_buffer_bytes = 1024ull * 1500ull, .init_cwnd_segments = 0,
     .bleach_nodes = {"switch"},
     .own_keys = {"flows_per_queue", "duration_ms", "link_gbps"},
     .build = &DumbbellRun::build},
    // Bleaching defaults to every spine of the 4x4 fabric: the classic
    // "broken middlebox in the core" failure the headline experiment studies.
    {.name = "leafspine", .queues = 8, .rtt_us = 85.2, .link_delay_us = 9.0,
     .port_buffer_bytes = 2048ull * 1500ull, .init_cwnd_segments = 16,
     .bleach_nodes = {"spine0", "spine1", "spine2", "spine3"},
     .own_keys = {"load", "flows", "workload", "max_sim_s", "fct_csv", "pattern",
                  "trace_file", "trace_export", "coflows", "mappers", "reducers",
                  "stages", "coflow_gap_us", "rpcs", "fanout", "rpc_bytes",
                  "rpc_deadline_us", "rpc_gap_us"},
     .build = &LeafSpineRun::build},
};

/// The topology `opts` names. Throws on an unknown one, and on a key owned
/// by the other topology.
const Topology& select_topology(const Options& opts) {
  const std::string name = opts.get("topology", "dumbbell");
  const Topology* chosen = nullptr;
  for (const Topology& t : kTopologies) {
    if (t.name == name) chosen = &t;
  }
  if (chosen == nullptr) throw std::invalid_argument("unknown topology '" + name + "'");
  for (const Topology& t : kTopologies) {
    if (&t == chosen) continue;
    for (const std::string& key : t.own_keys) {
      if (opts.has(key)) {
        throw std::invalid_argument(key + "= requires topology=" + t.name);
      }
    }
  }
  return *chosen;
}

}  // namespace

RunRecord run_scenario(const SweepPoint& point, bool quiet) {
  return run_scenario(point, quiet, nullptr);
}

RunRecord run_scenario(const SweepPoint& point, bool quiet,
                       regress::RunDigest* digest) {
  // Test-only deterministic crash hook (no-op unless PMSB_CRASH_AT is set):
  // lets the supervisor tests fault exactly one cell of a real sweep.
  maybe_inject_crash(point.index);
  RunRecord rec;
  rec.index = point.index;
  rec.label = point.label;
  rec.config = point.opts.values();
  // `digest=1` without an external digest: compute one internally just for
  // the info["digest"] / results["digest.events"] report.
  std::unique_ptr<regress::RunDigest> owned;
  if (digest == nullptr && point.opts.get_bool("digest", false)) {
    owned = std::make_unique<regress::RunDigest>();
    digest = owned.get();
  }

  // Build, attach the planes once, run, and report from one info/results
  // table.
  const Options& opts = point.opts;
  const Topology& topo = select_topology(opts);
  // Declared first so it is destroyed last: the planes below hold its
  // simulator.
  const std::unique_ptr<TopologyRun> built = topo.build(opts, topo, rec);
  Fabric& fab = built->fabric();
  if (digest != nullptr) fab.install_digest(*digest);
  Robustness robust;
  robust.install(fab, opts, topo.bleach_nodes);
  RunTelemetry telemetry(opts, quiet);
  telemetry.attach(fab);
  StabilityPlane stability;
  stability.attach(fab, telemetry, opts);
  if (!telemetry.metrics_path.empty()) robust.bind(telemetry.registry);
  telemetry.manifest.set_seed(run_seed(opts));

  built->run(opts, quiet, rec);

  rec.results["marks"] = static_cast<double>(fab.total_marks());
  rec.results["drops"] = static_cast<double>(fab.total_drops());
  // Per-reason drop counters: the sweep report's view of WHY a policy
  // refused.
  const auto by_reason = fab.total_drops_by_reason();
  for (std::size_t r = 0; r < by_reason.size(); ++r) {
    rec.results[std::string("drops.") +
                switchlib::drop_reason_name(static_cast<switchlib::DropReason>(r))] =
        static_cast<double>(by_reason[r]);
  }
  rec.results["sim.events_executed"] =
      static_cast<double>(fab.simulator().executed_events());
  stability.finalize(rec);
  robust.finalize(rec);
  fab.finalize_digest();
  if (digest != nullptr) {
    rec.info["digest"] = digest->total().hex();
    rec.results["digest.events"] = static_cast<double>(digest->count());
  }
  telemetry.finalize_observability(rec);
  rec.sim_time_us = sim::to_microseconds(fab.simulator().now());
  // The manifest carries the record's info and results next to its
  // instruments.
  for (const auto& [k, v] : rec.info) telemetry.manifest.set_info(k, v);
  for (const auto& [k, v] : rec.results) telemetry.manifest.set_result(k, v);
  telemetry.finish(rec.sim_time_us);
  rec.manifest_path = telemetry.metrics_path;
  rec.ok = true;
  return rec;
}

}  // namespace pmsb::sweep
