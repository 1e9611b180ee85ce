// pmsb_probe — isolated per-layer probes and profiler calibration for the
// benchmark, timed with std::chrono::steady_clock around public calls only.
//
// Layers probed (each a batch of calls, median ns per call over `reps`):
//   sim.heap / sim.calendar  Simulator::schedule_in + run as a hold model:
//                            every fired event schedules one successor, so
//                            the queue stays at `depth` entries (the depth a
//                            workload was observed to reach)
//   sched                    Scheduler::dequeue + enqueue on a backlogged
//                            scheduler of the workload's kind
//   ecn.<scheme>             MarkingScheme::should_mark for the five schemes,
//                            built through experiments::make_scheme_marking
//                            (the paper's §IV.C "two comparisons" claim)
//   digest                   RunDigest::event
// Calibration (perf/run.py subtracts the first from every in-run call and
// uses the last two for the traced pass's overhead):
//   empty_scope_self_ns      self time an empty ProfileScope reports
//   nested_scope_extra_ns    time a nested empty scope adds to its parent's
//                            self time (reported only: the profile does not
//                            record nesting)
//   scope_cost_ns            wall time of one empty scope, begin to end
//   hook_ns_per_dispatch     extra wall per event with a Profiler attached
//                            as the simulator's DispatchHook
//
// usage: pmsb_probe [scheduler=dwrr queues=8 weights=1,... rtt_us=85.2
//                   depth=1024 reps=5 scale=1]
// Prints one JSON object on stdout, including a span per batch.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ecn/factory.hpp"
#include "experiments/options.hpp"
#include "experiments/presets.hpp"
#include "regress/digest.hpp"
#include "sched/factory.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"

using namespace pmsb;

namespace {

volatile std::uint64_t g_sink = 0;  // keeps measured results observable

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a batch-per-entry sample, skipping the untimed warm-up batch.
double median_after_warmup(std::vector<double> v) {
  if (v.size() > 1) v.erase(v.begin());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

class Probe {
 public:
  explicit Probe(int reps) : reps_(reps) { spans_.push_back({"probe", now_ns(), 0, -1}); }

  /// Runs `batch` (which performs `ops` calls) once untimed, then `reps`
  /// times under a span each; returns the median ns per call.
  double time(const std::string& name, std::uint64_t ops,
              const std::function<void()>& batch) {
    const int section = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, 0});
    batch();
    std::vector<double> per_op;
    for (int r = 0; r < reps_; ++r) {
      Span s{name + ".batch", now_ns(), 0, section};
      batch();
      s.end_ns = now_ns();
      per_op.push_back(static_cast<double>(s.end_ns - s.start_ns) / static_cast<double>(ops));
      spans_.push_back(s);
    }
    spans_[static_cast<std::size_t>(section)].end_ns = now_ns();
    std::sort(per_op.begin(), per_op.end());
    return per_op[per_op.size() / 2];
  }

  void write_spans(telemetry::JsonWriter& w) {
    spans_[0].end_ns = now_ns();
    w.key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.key("end_ns").value(s.end_ns);
      w.key("id").value(static_cast<std::int64_t>(i));
      w.key("name").value(s.name);
      w.key("parent").value(static_cast<std::int64_t>(s.parent));
      w.key("start_ns").value(s.start_ns);
      w.end_object();
    }
    w.end_array();
  }

 private:
  int reps_;
  std::vector<Span> spans_;
};

// --- sim: hold model --------------------------------------------------------

struct Hold {
  sim::Simulator* sim = nullptr;
  const std::vector<sim::TimeNs>* incs = nullptr;
  std::uint64_t remaining = 0;
  std::size_t next = 0;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    const sim::TimeNs inc = (*incs)[next++ % incs->size()];
    sim->schedule_in(inc, [this] { fire(); });
  }
};

/// Keeps `depth` events pending while `events` more fire; returns the count
/// executed. `hook` (may be null) is attached for the run.
std::uint64_t hold_model(sim::QueueBackend backend, std::size_t depth, std::uint64_t events,
                         const std::vector<sim::TimeNs>& incs, telemetry::Profiler* hook) {
  sim::Simulator sim(backend);
  if (hook != nullptr) hook->attach(sim);
  Hold hold{&sim, &incs, events, 0};
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(incs[i % incs.size()], [&hold] { hold.fire(); });
  }
  sim.run();
  if (hook != nullptr) hook->detach();
  return sim.executed_events();
}

// --- ecn: should_mark -------------------------------------------------------

std::vector<ecn::PortSnapshot> make_snapshots(const std::vector<double>& weights) {
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;
  std::vector<ecn::PortSnapshot> snaps(1024);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    ecn::PortSnapshot& s = snaps[i];
    s.num_queues = weights.size();
    s.queue = i % weights.size();
    s.weight = weights[s.queue];
    s.weight_sum = weight_sum;
    s.port_bytes = (i * 37 * 1500) % 200'000;
    s.port_packets = s.port_bytes / 1500;
    s.queue_bytes = std::min<std::uint64_t>(s.port_bytes, (i * 17 * 1500) % 100'000);
    s.queue_packets = s.queue_bytes / 1500;
  }
  return snaps;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const experiments::Options opts = experiments::Options::from_args(argc, argv);
    opts.validate_keys({"scheduler", "queues", "weights", "rtt_us", "depth", "reps", "scale"});
    const auto queues = static_cast<std::size_t>(opts.get_int("queues", 8));
    std::vector<double> weights = opts.get_double_list("weights");
    if (weights.empty()) weights.assign(queues, 1.0);
    if (weights.size() != queues) throw std::invalid_argument("weights needs one entry per queue");
    const auto depth = static_cast<std::size_t>(std::max<std::int64_t>(opts.get_int("depth", 1024), 1));
    const double scale = opts.get_double("scale", 1.0);
    auto ops = [scale](double n) { return static_cast<std::uint64_t>(std::max(1e3, n * scale)); };
    Probe probe(static_cast<int>(std::max<std::int64_t>(opts.get_int("reps", 5), 1)));

    telemetry::JsonWriter w;
    w.begin_object();

    // Calibration: what the profiler itself costs. Each batch uses a fresh
    // Profiler so its per-scope readings are one sample; the warm-up batch's
    // sample (index 0) is dropped.
    const std::uint64_t scope_ops = ops(3e5);
    std::vector<double> empty_self;
    const double scope_cost = probe.time("trace.scope", scope_ops, [&] {
      telemetry::Profiler p;
      const auto k = p.intern("perf.empty");
      for (std::uint64_t i = 0; i < scope_ops; ++i) telemetry::ProfileScope s(&p, k);
      empty_self.push_back(static_cast<double>(p.self_wall_ns(k)) / static_cast<double>(scope_ops));
    });
    std::vector<double> parent_self;
    (void)probe.time("trace.nested_scope", scope_ops, [&] {
      telemetry::Profiler p;
      const auto k_parent = p.intern("perf.parent");
      const auto k_child = p.intern("perf.child");
      for (std::uint64_t i = 0; i < scope_ops; ++i) {
        telemetry::ProfileScope parent(&p, k_parent);
        telemetry::ProfileScope child(&p, k_child);
      }
      parent_self.push_back(static_cast<double>(p.self_wall_ns(k_parent)) /
                            static_cast<double>(scope_ops));
    });

    sim::Rng rng(1);
    std::vector<sim::TimeNs> incs(4096);
    for (auto& inc : incs) inc = static_cast<sim::TimeNs>(rng.exponential(1000.0));
    const std::uint64_t hold_events = ops(3e5);
    const std::uint64_t hold_total = depth + hold_events;
    const double heap_ns = probe.time("sim.heap", hold_total, [&] {
      g_sink = hold_model(sim::QueueBackend::kHeap, depth, hold_events, incs, nullptr);
    });
    const double calendar_ns = probe.time("sim.calendar", hold_total, [&] {
      g_sink = hold_model(sim::QueueBackend::kCalendar, depth, hold_events, incs, nullptr);
    });
    // Hooked and unhooked runs alternate so drift in machine speed cancels.
    std::vector<double> hook_cost;
    (void)probe.time("sim.hook", 2 * hold_total, [&] {
      telemetry::Profiler hook;
      const std::int64_t t0 = now_ns();
      g_sink = hold_model(sim::QueueBackend::kHeap, depth, hold_events, incs, nullptr);
      const std::int64_t t1 = now_ns();
      g_sink = hold_model(sim::QueueBackend::kHeap, depth, hold_events, incs, &hook);
      const std::int64_t t2 = now_ns();
      hook_cost.push_back(static_cast<double>((t2 - t1) - (t1 - t0)) /
                          static_cast<double>(hold_total));
    });

    w.key("calibration").begin_object();
    const double empty = median_after_warmup(empty_self);
    w.key("empty_scope_self_ns").value(empty);
    w.key("hook_ns_per_dispatch").value(std::max(0.0, median_after_warmup(hook_cost)));
    w.key("nested_scope_extra_ns").value(std::max(0.0, median_after_warmup(parent_self) - empty));
    w.key("scope_cost_ns").value(scope_cost);
    w.end_object();

    w.key("sim").begin_object();
    w.key("calendar_ns_per_event").value(calendar_ns);
    w.key("depth").value(static_cast<std::uint64_t>(depth));
    w.key("heap_ns_per_event").value(heap_ns);
    w.end_object();

    // Scheduler: steady backlog, one dequeue and one enqueue per step.
    sched::SchedulerConfig sc;
    sc.kind = sched::parse_scheduler_kind(opts.get("scheduler", "dwrr"));
    sc.num_queues = queues;
    sc.weights = weights;
    const std::uint64_t sched_steps = ops(1e6);
    const double sched_ns = probe.time("sched", 2 * sched_steps, [&] {
      auto s = sched::make_scheduler(sc);
      for (std::size_t q = 0; q < queues; ++q) {
        for (std::uint32_t i = 0; i < 16; ++i) {
          net::Packet pkt;
          pkt.size_bytes = 64 + (i * 577) % 1437;
          s->enqueue(q, pkt);
        }
      }
      sim::TimeNs now = 0;
      std::uint64_t touched = 0;
      for (std::uint64_t i = 0; i < sched_steps; ++i) {
        auto out = s->dequeue(now);
        now += 1200;
        touched += out->queue;
        s->enqueue(out->queue, std::move(out->pkt));
      }
      g_sink = touched;
    });
    w.key("sched").begin_object();
    w.key("name").value(sched::scheduler_kind_name(sc.kind));
    w.key("ns_per_op").value(sched_ns);
    w.end_object();

    // Marking: one should_mark per call, cycling through varied snapshots.
    experiments::SchemeParams params;
    params.rtt = sim::microseconds_f(opts.get_double("rtt_us", 85.2));
    params.weights = weights;
    const std::vector<ecn::PortSnapshot> snaps = make_snapshots(weights);
    const std::uint64_t mark_ops = ops(2e6);
    const struct {
      const char* name;
      experiments::Scheme scheme;
    } kSchemes[] = {{"mqecn", experiments::Scheme::kMqEcn},
                    {"perport", experiments::Scheme::kPerPort},
                    {"perqueue", experiments::Scheme::kPerQueueStd},
                    {"pmsb", experiments::Scheme::kPmsb},
                    {"tcn", experiments::Scheme::kTcn}};
    w.key("ecn").begin_object();
    for (const auto& s : kSchemes) {
      const ecn::MarkingConfig cfg = experiments::make_scheme_marking(s.scheme, params);
      const ecn::MarkPoint point = ecn::effective_mark_point(cfg);
      const double ns = probe.time(std::string("ecn.") + s.name, mark_ops, [&] {
        auto marking = ecn::make_marking(cfg);
        // A live round estimate, so MQ-ECN takes its dynamic-threshold path.
        for (int r = 0; r < 16; ++r) marking->on_round_complete(r * 3000);
        net::Packet pkt;
        std::uint64_t marks = 0;
        for (std::uint64_t i = 0; i < mark_ops; ++i) {
          pkt.enqueue_time = static_cast<sim::TimeNs>((i * 11) % 200'000);
          marks += marking->should_mark(snaps[i % snaps.size()], pkt, point,
                                        static_cast<sim::TimeNs>(100'000 + i * 13))
                       ? 1
                       : 0;
        }
        g_sink = marks;
      });
      w.key(s.name).value(ns);
    }
    w.end_object();

    // Digest: the per-event fold every instrumented component calls.
    const std::uint64_t digest_ops = ops(3e5);
    const double digest_ns = probe.time("digest", digest_ops, [&] {
      regress::RunDigest digest;
      std::vector<regress::EntityId> ids;
      for (int e = 0; e < 64; ++e) ids.push_back(digest.register_entity(std::to_string(e)));
      for (std::uint64_t i = 0; i < digest_ops; ++i) {
        digest.event(ids[i % ids.size()], static_cast<regress::EventKind>(i % 6),
                     static_cast<std::int64_t>(i * 1000), i * 3, i * 7);
      }
      g_sink = digest.total().lo();
    });
    w.key("digest").begin_object();
    w.key("ns_per_event").value(digest_ns);
    w.end_object();

    probe.write_spans(w);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmsb_probe: %s\n", e.what());
    return 2;
  }
}
