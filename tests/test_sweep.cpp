// Tests for the parallel sweep runner: grid expansion, the worker pool, and
// the determinism contract (per-run results are bit-identical whether a
// sweep runs serially or across threads, and whether a run is the first or
// the second in its process).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/options.hpp"
#include "experiments/presets.hpp"
#include "sim/rng.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"
#include "trace/spans.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

using namespace pmsb;
using pmsb::experiments::Options;

namespace {

Options leafspine_base() {
  Options base;
  base.set("topology", "leafspine");
  base.set("flows", "40");
  base.set("seed", "11");
  return base;
}

}  // namespace

// --- expand_grid -------------------------------------------------------

TEST(ExpandGrid, CartesianProductLastDimensionFastest) {
  Options base;
  base.set("topology", "leafspine");
  const auto pts = sweep::expand_grid(base, "load:0.3,0.6;scheme:pmsb,tcn,mq-ecn");
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_EQ(pts[0].label, "load=0.3 scheme=pmsb");
  EXPECT_EQ(pts[1].label, "load=0.3 scheme=tcn");
  EXPECT_EQ(pts[2].label, "load=0.3 scheme=mq-ecn");
  EXPECT_EQ(pts[3].label, "load=0.6 scheme=pmsb");
  EXPECT_EQ(pts[5].opts.get("scheme"), "mq-ecn");
  EXPECT_EQ(pts[5].opts.get("load"), "0.6");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    // Base keys survive on every point.
    EXPECT_EQ(pts[i].opts.get("topology"), "leafspine");
  }
}

TEST(ExpandGrid, SingleDimension) {
  const auto pts = sweep::expand_grid(Options{}, "seed:1,2,3,4");
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[2].opts.get("seed"), "3");
  EXPECT_EQ(pts[2].label, "seed=3");
}

TEST(ExpandGrid, SweepValueOverridesBaseValue) {
  Options base;
  base.set("load", "0.9");
  const auto pts = sweep::expand_grid(base, "load:0.1,0.2");
  EXPECT_EQ(pts[0].opts.get("load"), "0.1");
  EXPECT_EQ(pts[1].opts.get("load"), "0.2");
}

TEST(ExpandGrid, RejectsMalformedSpecs) {
  const Options base;
  EXPECT_THROW(sweep::expand_grid(base, ""), std::invalid_argument);
  EXPECT_THROW(sweep::expand_grid(base, "load"), std::invalid_argument);
  EXPECT_THROW(sweep::expand_grid(base, ":0.1,0.2"), std::invalid_argument);
  EXPECT_THROW(sweep::expand_grid(base, "load:"), std::invalid_argument);
  EXPECT_THROW(sweep::expand_grid(base, "load:0.1;load:0.2"),
               std::invalid_argument);
}

// --- parallel_for ------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(100);
    sweep::parallel_for(100, jobs, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelFor, MoreJobsThanWorkIsFine) {
  std::atomic<int> calls{0};
  sweep::parallel_for(3, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelFor, ZeroItemsIsNoop) {
  sweep::parallel_for(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(sweep::parallel_for(8, 4,
                                   [](std::size_t i) {
                                     if (i == 5) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
}

// A worker that hits an exception records it and keeps draining the index
// range — one bad cell must not silently skip its siblings.
TEST(ParallelFor, ThrowDoesNotStopDraining) {
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(sweep::parallel_for(64, 4,
                                   [&](std::size_t i) {
                                     ++hits[i];
                                     if (i == 0) throw std::runtime_error("early");
                                   }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Many concurrent throwers: exactly one of the thrown exceptions is
// rethrown (whichever was recorded first), every index is still attempted,
// and the pool joins cleanly instead of deadlocking.
TEST(ParallelFor, ManyConcurrentThrowersPropagateExactlyOne) {
  std::vector<std::atomic<int>> hits(32);
  std::string message;
  try {
    sweep::parallel_for(32, 8, [&](std::size_t i) {
      ++hits[i];
      throw std::runtime_error("thrower-" + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message.rfind("thrower-", 0), 0u) << message;
  const std::size_t idx =
      static_cast<std::size_t>(std::stoul(message.substr(std::string("thrower-").size())));
  EXPECT_LT(idx, 32u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ThrowerWithFewerItemsThanJobs) {
  std::atomic<int> calls{0};
  EXPECT_THROW(sweep::parallel_for(2, 16,
                                   [&](std::size_t) {
                                     ++calls;
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 2);
}

// jobs=0 and jobs=1 both run inline on the calling thread.
TEST(ParallelFor, JobsZeroAndOneRunInline) {
  const auto caller = std::this_thread::get_id();
  for (std::size_t jobs : {std::size_t{0}, std::size_t{1}}) {
    std::size_t calls = 0;
    sweep::parallel_for(5, jobs, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
    EXPECT_EQ(calls, 5u) << "jobs=" << jobs;
  }
}

// Inline execution propagates immediately: indices after the thrower never
// run (unlike the pooled path, which drains). Pinned so a change here is a
// deliberate decision, not an accident.
TEST(ParallelFor, InlineThrowStopsAtTheThrower) {
  std::vector<int> hits(4, 0);
  EXPECT_THROW(sweep::parallel_for(4, 1,
                                   [&](std::size_t i) {
                                     ++hits[i];
                                     if (i == 1) throw std::runtime_error("stop");
                                   }),
               std::runtime_error);
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 0);
  EXPECT_EQ(hits[3], 0);
}

// --- manifest_file_name ------------------------------------------------

TEST(ManifestFileName, PadsToThreeDigitsForSmallGrids) {
  EXPECT_EQ(sweep::manifest_file_name(0, 16), "run_000.json");
  EXPECT_EQ(sweep::manifest_file_name(7, 100), "run_007.json");
  EXPECT_EQ(sweep::manifest_file_name(999, 1000), "run_999.json");
  // Degenerate grids still produce a sane name.
  EXPECT_EQ(sweep::manifest_file_name(0, 0), "run_000.json");
  EXPECT_EQ(sweep::manifest_file_name(0, 1), "run_000.json");
}

// Regression: the pad width used to be a fixed 3, so a >=1001-cell grid
// mixed "run_999.json" with "run_1000.json" — distinct but unequal-length
// names whose lexicographic order no longer matched index order.
TEST(ManifestFileName, WidensForLargeGrids) {
  EXPECT_EQ(sweep::manifest_file_name(0, 1001), "run_0000.json");
  EXPECT_EQ(sweep::manifest_file_name(7, 2000), "run_0007.json");
  EXPECT_EQ(sweep::manifest_file_name(1234, 2000), "run_1234.json");
  EXPECT_EQ(sweep::manifest_file_name(0, 100000), "run_00000.json");
}

TEST(ManifestFileName, LargeGridNamesAreDistinctAndOrdered) {
  const std::size_t grid = 1200;
  std::set<std::string> names;
  std::string prev;
  for (std::size_t i = 0; i < grid; ++i) {
    const std::string name = sweep::manifest_file_name(i, grid);
    EXPECT_EQ(name.size(), sweep::manifest_file_name(0, grid).size());
    if (i > 0) {
      EXPECT_LT(prev, name) << "index " << i;
    }
    names.insert(name);
    prev = name;
  }
  EXPECT_EQ(names.size(), grid);  // every cell gets its own file
}

// --- determinism contract ---------------------------------------------

TEST(Sweep, SerialAndParallelRunsAreBitIdentical) {
  const auto pts =
      sweep::expand_grid(leafspine_base(), "load:0.3,0.7;scheme:pmsb,tcn");
  sweep::SweepConfig serial_cfg;
  serial_cfg.jobs = 1;
  sweep::SweepConfig pool_cfg;
  pool_cfg.jobs = 4;
  const auto serial = sweep::run_sweep(pts, serial_cfg);
  const auto pooled = sweep::run_sweep(pts, pool_cfg);
  ASSERT_EQ(serial.size(), pts.size());
  ASSERT_EQ(pooled.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(sweep::deterministic_signature(serial[i]),
              sweep::deterministic_signature(pooled[i]))
        << pts[i].label;
  }
}

// Regression for the process-global packet-id counters: the second of two
// identical runs in one process used to continue the id sequence where the
// first stopped, so its packet trace differed. With per-simulator
// allocation the full event trace — ids included — must match.
TEST(Sweep, BackToBackIdenticalRunsProduceIdenticalTraces) {
  auto capture = [] {
    experiments::DumbbellConfig cfg;
    cfg.num_senders = 2;
    cfg.scheduler.num_queues = 2;
    cfg.scheduler.weights = {1.0, 1.0};
    experiments::DumbbellScenario sc(cfg);
    trace::SpanTracer tracer;
    tracer.watch_all();
    sc.bottleneck().add_observer(&tracer, tracer.intern_node("switch"));
    for (std::size_t s = 0; s < 2; ++s) {
      experiments::DumbbellFlowSpec spec;
      spec.sender = s;
      spec.service = static_cast<net::ServiceId>(s);
      sc.add_flow(spec);
    }
    sc.run(sim::milliseconds(5));
    std::vector<trace::SpanRecord> spans;
    tracer.for_each_chronological([&spans](const trace::SpanRecord& s) { spans.push_back(s); });
    return spans;
  };
  const auto first = capture();
  const auto second = capture();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].time, second[i].time) << "record " << i;
    EXPECT_EQ(first[i].phase, second[i].phase) << "record " << i;
    EXPECT_EQ(first[i].packet, second[i].packet) << "record " << i;
    EXPECT_EQ(first[i].flow, second[i].flow) << "record " << i;
    EXPECT_EQ(first[i].queue, second[i].queue) << "record " << i;
    EXPECT_EQ(first[i].port_bytes, second[i].port_bytes) << "record " << i;
  }
}

TEST(Sweep, BackToBackScenarioRunsHaveEqualSignatures) {
  sweep::SweepPoint pt;
  pt.opts = leafspine_base();
  const auto a = sweep::run_scenario(pt, /*quiet=*/true);
  const auto b = sweep::run_scenario(pt, /*quiet=*/true);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(sweep::deterministic_signature(a), sweep::deterministic_signature(b));
}

TEST(Sweep, SignatureSeparatesDifferentRuns) {
  sweep::SweepPoint a;
  a.opts = leafspine_base();
  sweep::SweepPoint b;
  b.opts = leafspine_base();
  b.opts.set("seed", "12");
  const auto ra = sweep::run_scenario(a, /*quiet=*/true);
  const auto rb = sweep::run_scenario(b, /*quiet=*/true);
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_NE(sweep::deterministic_signature(ra),
            sweep::deterministic_signature(rb));
}

// --- error handling and reports ---------------------------------------

TEST(Sweep, ScenarioErrorIsRecordedNotThrown) {
  Options bad;
  bad.set("topology", "not-a-topology");
  const auto pts = sweep::expand_grid(bad, "seed:1,2");
  sweep::SweepConfig cfg;
  const auto recs = sweep::run_sweep(pts, cfg);
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& r : recs) {
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(Sweep, ReportsContainEveryRun) {
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.3,0.7");
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  const auto recs = sweep::run_sweep(pts, cfg);

  const std::string json = sweep::sweep_report_json(recs, cfg.jobs, 1.0);
  EXPECT_NE(json.find("\"schema\":\"pmsb.sweep_report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"points\":2"), std::string::npos);
  EXPECT_NE(json.find("load=0.3"), std::string::npos);
  EXPECT_NE(json.find("load=0.7"), std::string::npos);

  const std::string csv = sweep::sweep_report_csv(recs);
  // Header + one row per run.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("index,label,ok"), std::string::npos);
  EXPECT_NE(csv.find("fct_us.small.mean"), std::string::npos);
}

TEST(Sweep, ManifestsWrittenPerRun) {
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.3,0.7");
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  cfg.manifest_dir = ::testing::TempDir();
  const auto recs = sweep::run_sweep(pts, cfg);
  std::set<std::string> paths;
  for (const auto& r : recs) {
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(r.manifest_path.empty());
    paths.insert(r.manifest_path);
    std::FILE* f = std::fopen(r.manifest_path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << r.manifest_path;
    std::fclose(f);
  }
  EXPECT_EQ(paths.size(), recs.size());  // distinct file per run
}

TEST(Sweep, MetricsJsonIsDroppedLikeOtherPerRunFiles) {
  // Every cell would write the same metrics_json= path at once; a sweep
  // drops the key with the other per-run file outputs. spans_ndjson= goes
  // too, and trace_flows= with it: spans no cell writes are only memory.
  Options base = leafspine_base();
  const std::string path = ::testing::TempDir() + "/sweep_metrics_json.json";
  const std::string spans = ::testing::TempDir() + "/sweep_spans.ndjson";
  std::remove(path.c_str());
  std::remove(spans.c_str());
  base.set("metrics_json", path);
  base.set("trace_flows", "all");
  base.set("spans_ndjson", spans);
  const auto pts = sweep::expand_grid(base, "load:0.3,0.5,0.7,0.9");
  sweep::SweepConfig cfg;
  cfg.jobs = 4;
  const auto recs = sweep::run_sweep(pts, cfg);
  for (const auto& r : recs) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.config.count("metrics_json"), 0u);
    EXPECT_EQ(r.config.count("trace_flows"), 0u);
    EXPECT_EQ(r.config.count("spans_ndjson"), 0u);
    EXPECT_TRUE(r.manifest_path.empty());
  }
  for (const std::string& written : {path, spans}) {
    std::FILE* f = std::fopen(written.c_str(), "rb");
    EXPECT_EQ(f, nullptr) << written;
    if (f != nullptr) std::fclose(f);
  }
}

// --- the max_cwnd_bytes= key -------------------------------------------

namespace {

/// The results of leafspine_base() at load 0.5 (PMSB on DWRR), built by
/// hand with every flow's window capped at `max_cwnd_bytes`.
std::map<std::string, double> hand_built_leafspine(std::uint64_t max_cwnd_bytes) {
  experiments::LeafSpineConfig cfg;
  cfg.link_delay = sim::microseconds(9);
  cfg.buffer_bytes = 2048ull * 1500ull;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 8;
  cfg.scheduler.weights.assign(8, 1.0);
  experiments::SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds_f(85.2);
  params.weights = cfg.scheduler.weights;
  cfg.marking = experiments::make_scheme_marking(experiments::Scheme::kPmsb, params);
  cfg.transport.init_cwnd_segments = 16;
  cfg.transport.max_cwnd_bytes = max_cwnd_bytes;
  experiments::apply_scheme_transport(experiments::Scheme::kPmsb, params,
                                      experiments::LeafSpineScenario::base_rtt_interrack(cfg),
                                      cfg.transport);
  experiments::LeafSpineScenario sc(cfg);
  workload::TrafficConfig tc;
  tc.num_hosts = sc.num_hosts();
  tc.load = 0.5;
  tc.num_flows = 40;
  tc.num_services = 8;
  sim::Rng rng(11);
  sc.add_workload(workload::generate_poisson_traffic(
      tc, workload::FlowSizeDistribution::paper_mix(), rng));
  EXPECT_TRUE(sc.run_until_complete(sim::seconds(60)));

  std::map<std::string, double> out;
  out["drops"] = static_cast<double>(sc.total_drops());
  out["flows_completed"] = static_cast<double>(sc.completed_flows());
  const auto record = [&out](const std::string& bin, const stats::Summary& s) {
    out["fct_us." + bin + ".mean"] = s.mean();
    out["fct_us." + bin + ".p95"] = s.percentile(95);
    out["fct_us." + bin + ".p99"] = s.percentile(99);
  };
  record("small", sc.fct().fct_us(stats::SizeBin::kSmall));
  record("medium", sc.fct().fct_us(stats::SizeBin::kMedium));
  record("large", sc.fct().fct_us(stats::SizeBin::kLarge));
  record("overall", sc.fct().overall_fct_us());
  return out;
}

}  // namespace

TEST(MaxCwndKey, SetsEveryLeafSpineFlowsWindowCap) {
  sweep::SweepPoint pt;
  pt.opts = leafspine_base();
  pt.opts.set("load", "0.5");
  const auto uncapped = sweep::run_scenario(pt, /*quiet=*/true);
  pt.opts.set("max_cwnd_bytes", "2000000");
  const auto capped = sweep::run_scenario(pt, /*quiet=*/true);
  ASSERT_TRUE(uncapped.ok && capped.ok);

  const auto by_hand = hand_built_leafspine(2'000'000);
  const auto by_default = hand_built_leafspine(transport::DctcpConfig{}.max_cwnd_bytes);
  bool moved = false;
  for (const auto& [key, value] : by_hand) {
    EXPECT_EQ(capped.results.at(key), value) << key;
    EXPECT_EQ(uncapped.results.at(key), by_default.at(key)) << key;
    moved = moved || value != by_default.at(key);
  }
  EXPECT_TRUE(moved) << "the 2 MB window changed no result";
}

TEST(MaxCwndKey, BelowOneMssIsRejectedNamingTheKey) {
  for (const char* cap : {"0", "1000"}) {
    sweep::SweepPoint pt;
    pt.opts = leafspine_base();
    pt.opts.set("max_cwnd_bytes", cap);
    try {
      (void)sweep::run_scenario(pt, /*quiet=*/true);
      ADD_FAILURE() << "max_cwnd_bytes=" << cap << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("max_cwnd_bytes="), std::string::npos)
          << e.what();
    }
  }
}
