// End-to-end tests for workload plane v2 through the sweep runner: trace
// export/replay bit-identity, coflow CCT results, the D2TCP deadline-pressure
// path on the RPC pattern, and the FCT CSV's pattern/deadline columns; plus
// run_scenario's contract: topology-only keys, shared port keys, and the
// exact report columns per cell kind.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"
#include "workload/flow_trace.hpp"

using namespace pmsb;

namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// A small leaf-spine cell with a digest, plus any extra key=value pairs.
sweep::SweepPoint leafspine_point() {
  sweep::SweepPoint pt;
  pt.opts.set("topology", "leafspine");
  pt.opts.set("flows", "40");
  pt.opts.set("load", "0.4");
  pt.opts.set("seed", "3");
  pt.opts.set("digest", "1");
  return pt;
}

/// An RPC fan-out cell with enough incast pressure that deadline choice
/// actually matters (10 shards of 40 kB converging on one host).
sweep::SweepPoint rpc_point(double deadline_us, bool d2tcp) {
  sweep::SweepPoint pt;
  pt.opts.set("topology", "leafspine");
  pt.opts.set("pattern", "rpc");
  pt.opts.set("rpcs", "20");
  pt.opts.set("fanout", "10");
  pt.opts.set("rpc_bytes", "40000");
  pt.opts.set("rpc_gap_us", "200");
  pt.opts.set("seed", "5");
  pt.opts.set("digest", "1");
  std::ostringstream d;
  d << deadline_us;
  pt.opts.set("rpc_deadline_us", d.str());
  pt.opts.set("d2tcp", d2tcp ? "1" : "0");
  return pt;
}

}  // namespace

TEST(WorkloadPlane, TraceExportThenReplayIsBitIdentical) {
  const std::string trace = tmp_path("export_replay.ndjson");
  sweep::SweepPoint exporter = leafspine_point();
  exporter.opts.set("trace_export", trace);
  const auto original = sweep::run_scenario(exporter, /*quiet=*/true);
  ASSERT_TRUE(original.ok) << original.error;
  EXPECT_EQ(original.info.at("pattern"), "poisson");

  sweep::SweepPoint replayer;
  replayer.opts.set("topology", "leafspine");
  replayer.opts.set("seed", "3");
  replayer.opts.set("digest", "1");
  replayer.opts.set("trace_file", trace);
  const auto replay = sweep::run_scenario(replayer, /*quiet=*/true);
  ASSERT_TRUE(replay.ok) << replay.error;

  EXPECT_EQ(replay.info.at("pattern"), "trace");
  EXPECT_EQ(replay.info.at("digest"), original.info.at("digest"));
  EXPECT_EQ(replay.results.at("flows_completed"),
            original.results.at("flows_completed"));
  EXPECT_EQ(replay.results.at("fct_us.overall.p99"),
            original.results.at("fct_us.overall.p99"));
}

TEST(WorkloadPlane, ReplayRejectsHostCountMismatch) {
  const std::string trace = tmp_path("four_host_trace.ndjson");
  std::vector<workload::FlowSpec> flows(1);
  flows[0].src = 0;
  flows[0].dst = 1;
  flows[0].bytes = 1000;
  workload::write_flow_trace(trace, 4, flows);  // fabric has 48 hosts

  sweep::SweepPoint pt;
  pt.opts.set("topology", "leafspine");
  pt.opts.set("trace_file", trace);
  EXPECT_THROW(sweep::run_scenario(pt, /*quiet=*/true), std::invalid_argument);
}

TEST(WorkloadPlane, WorkloadKeysRequireLeafSpine) {
  sweep::SweepPoint pt;  // default topology: dumbbell
  pt.opts.set("pattern", "coflow");
  EXPECT_THROW(sweep::run_scenario(pt, /*quiet=*/true), std::invalid_argument);

  // Every key one topology owns is rejected on the other, naming the owner.
  const std::vector<std::pair<std::string, std::vector<std::string>>> owned = {
      {"leafspine",
       {"load", "flows", "workload", "max_sim_s", "fct_csv", "pattern", "trace_file",
        "trace_export", "coflows", "mappers", "reducers", "stages", "coflow_gap_us",
        "rpcs", "fanout", "rpc_bytes", "rpc_deadline_us", "rpc_gap_us"}},
      {"dumbbell", {"flows_per_queue", "duration_ms", "link_gbps"}},
  };
  for (const auto& [owner, keys] : owned) {
    for (const std::string& key : keys) {
      sweep::SweepPoint other;
      other.opts.set("topology", owner == "dumbbell" ? "leafspine" : "dumbbell");
      other.opts.set(key, "1");
      try {
        (void)sweep::run_scenario(other, /*quiet=*/true);
        ADD_FAILURE() << key << "= was accepted without topology=" << owner;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), key + "= requires topology=" + owner);
      }
    }
  }
}

TEST(WorkloadPlane, SharedPortKeysReachLeafSpinePorts) {
  // weights= and mark_point= configure the studied ports on every topology,
  // so each must move the leaf-spine digest.
  sweep::SweepPoint base = leafspine_point();
  base.opts.set("flows", "10");
  base.opts.set("load", "0.6");
  base.opts.set("seed", "7");
  const auto plain = sweep::run_scenario(base, /*quiet=*/true);
  ASSERT_TRUE(plain.ok) << plain.error;
  for (const auto& [key, value] : std::vector<std::pair<std::string, std::string>>{
           {"weights", "1,2,3,4,5,6,7,8"}, {"mark_point", "dequeue"}}) {
    sweep::SweepPoint pt = base;
    pt.opts.set(key, value);
    const auto rec = sweep::run_scenario(pt, /*quiet=*/true);
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_NE(rec.info.at("digest"), plain.info.at("digest")) << key << " was ignored";
  }
}

TEST(WorkloadPlane, ReportColumnsArePinned) {
  // The exact pmsb.sweep_report/1 info and result columns per cell kind:
  // resume and salvage compare records by signature, and reports feed
  // offline analysis.
  const std::vector<std::string> info_dumbbell = {"buffer_policy", "scheduler",
                                                  "scheme", "topology"};
  const std::vector<std::string> info_leafspine = {
      "all_flows_completed", "buffer_policy", "pattern", "scheduler",
      "scheme", "topology", "workload"};
  const std::vector<std::string> common = {
      "drops", "drops.dynamic_threshold", "drops.equal_share", "drops.pool_exhausted",
      "drops.port_budget", "faults.bleached", "faults.dropped", "faults.forwarded",
      "invariants.evaluations", "invariants.violations", "marks",
      "sim.events_executed"};
  const std::vector<std::string> dumbbell = {"rtt_us.mean", "rtt_us.p99",
                                             "throughput_gbps.q0", "throughput_gbps.q1"};
  const std::vector<std::string> pool = {"buffer.free_pool_bytes_final",
                                         "buffer.pool_limit_bytes"};
  std::vector<std::string> fct = {"flows_completed", "flows_total"};
  for (const char* bin : {"small", "medium", "large", "overall"}) {
    for (const char* stat : {"mean", "p95", "p99"}) {
      fct.push_back(std::string("fct_us.") + bin + "." + stat);
    }
  }
  const std::vector<std::string> coflow = {"coflow.cct_us.mean", "coflow.cct_us.p95",
                                           "coflow.cct_us.p99", "coflow.groups",
                                           "coflow.groups_completed"};
  const std::vector<std::string> deadline = {"deadline.miss_fraction",
                                             "deadline.misses", "deadline.total"};

  const std::string trace = tmp_path("pinned_columns.ndjson");
  struct Cell {
    std::vector<std::pair<std::string, std::string>> opts;
    std::vector<std::string> info;
    std::vector<std::vector<std::string>> results;
  };
  const std::vector<Cell> cells = {
      {{{"topology", "dumbbell"}, {"duration_ms", "5"}, {"buffer_policy", "static"}},
       info_dumbbell, {common, dumbbell}},
      {{{"topology", "dumbbell"}, {"duration_ms", "5"}, {"buffer_policy", "dt"}},
       info_dumbbell, {common, dumbbell, pool}},
      {{{"topology", "leafspine"}, {"flows", "20"}, {"load", "0.3"},
        {"trace_export", trace}},
       info_leafspine, {common, fct}},
      {{{"topology", "leafspine"}, {"pattern", "coflow"}, {"coflows", "2"},
        {"mappers", "2"}, {"reducers", "2"}},
       info_leafspine, {common, fct, coflow}},
      {{{"topology", "leafspine"}, {"pattern", "rpc"}, {"rpcs", "4"}, {"fanout", "4"}},
       info_leafspine, {common, fct, coflow, deadline}},
      {{{"topology", "leafspine"}, {"trace_file", trace}}, info_leafspine, {common, fct}},
  };
  for (const Cell& cell : cells) {
    sweep::SweepPoint pt;
    pt.opts.set("seed", "5");
    for (const auto& [k, v] : cell.opts) pt.opts.set(k, v);
    const auto rec = sweep::run_scenario(pt, /*quiet=*/true);
    ASSERT_TRUE(rec.ok) << rec.error;
    std::set<std::string> info, want_info(cell.info.begin(), cell.info.end());
    for (const auto& entry : rec.info) info.insert(entry.first);
    std::set<std::string> results, want_results;
    for (const auto& entry : rec.results) results.insert(entry.first);
    for (const auto& group : cell.results) want_results.insert(group.begin(), group.end());
    const std::string label = pt.opts.get("topology") + " " + cell.opts.back().first;
    EXPECT_EQ(info, want_info) << label;
    EXPECT_EQ(results, want_results) << label;
  }
}

TEST(WorkloadPlane, UnknownPatternThrows) {
  sweep::SweepPoint pt;
  pt.opts.set("topology", "leafspine");
  pt.opts.set("pattern", "bogus");
  EXPECT_THROW(sweep::run_scenario(pt, /*quiet=*/true), std::invalid_argument);
}

TEST(WorkloadPlane, CoflowCellReportsCctAndBarriers) {
  sweep::SweepPoint pt;
  pt.opts.set("topology", "leafspine");
  pt.opts.set("pattern", "coflow");
  pt.opts.set("coflows", "4");
  pt.opts.set("mappers", "3");
  pt.opts.set("reducers", "3");
  pt.opts.set("stages", "2");
  pt.opts.set("coflow_gap_us", "500");
  pt.opts.set("seed", "2");
  const auto rec = sweep::run_scenario(pt, /*quiet=*/true);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.info.at("pattern"), "coflow");
  EXPECT_EQ(rec.results.at("flows_total"), 4.0 * 2.0 * 9.0);
  EXPECT_EQ(rec.results.at("flows_completed"), rec.results.at("flows_total"));
  EXPECT_EQ(rec.results.at("coflow.groups"), 4.0);
  EXPECT_EQ(rec.results.at("coflow.groups_completed"), 4.0);
  EXPECT_GT(rec.results.at("coflow.cct_us.mean"), 0.0);
  EXPECT_GE(rec.results.at("coflow.cct_us.p99"),
            rec.results.at("coflow.cct_us.mean"));
}

TEST(WorkloadPlane, PoissonCellKeepsHistoricalColumnSet) {
  // Grouped-workload columns must not leak into plain Poisson cells: resume
  // and salvage compare records by exact signature.
  const auto rec = sweep::run_scenario(leafspine_point(), /*quiet=*/true);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.results.count("coflow.groups"), 0u);
  EXPECT_EQ(rec.results.count("coflow.cct_us.mean"), 0u);
  EXPECT_EQ(rec.results.count("deadline.total"), 0u);
}

// --- D2TCP deadline pressure (satellite: deadline-aware transport) ------

TEST(DeadlinePressure, MissFractionOrdersByDeadlineTightness) {
  // Impossible (30 us < the unloaded inter-rack RTT), tight (within reach
  // but under incast pressure), loose (effectively unbounded).
  const auto impossible = sweep::run_scenario(rpc_point(30.0, true), true);
  const auto tight = sweep::run_scenario(rpc_point(600.0, true), true);
  const auto loose = sweep::run_scenario(rpc_point(50'000.0, true), true);
  ASSERT_TRUE(impossible.ok && tight.ok && loose.ok);

  for (const auto* rec : {&impossible, &tight, &loose}) {
    EXPECT_EQ(rec->results.at("deadline.total"), 20.0 * 10.0);
  }
  const double miss_impossible = impossible.results.at("deadline.miss_fraction");
  const double miss_tight = tight.results.at("deadline.miss_fraction");
  const double miss_loose = loose.results.at("deadline.miss_fraction");
  EXPECT_EQ(miss_impossible, 1.0);
  EXPECT_EQ(miss_loose, 0.0);
  EXPECT_GE(miss_impossible, miss_tight);
  EXPECT_GE(miss_tight, miss_loose);
}

TEST(DeadlinePressure, DisabledD2tcpWithDeadlinesMatchesPlainDctcp) {
  // With d2tcp=0 the deadlines still land in the FCT report, but the
  // transport must behave exactly like plain DCTCP: bit-identical digest to
  // the same cell with deadlines disabled outright.
  const auto with_deadlines = sweep::run_scenario(rpc_point(600.0, false), true);
  const auto without = sweep::run_scenario(rpc_point(0.0, false), true);
  ASSERT_TRUE(with_deadlines.ok && without.ok);
  EXPECT_EQ(with_deadlines.info.at("digest"), without.info.at("digest"));
  EXPECT_EQ(with_deadlines.results.count("deadline.total"), 1u);
  EXPECT_EQ(without.results.count("deadline.total"), 0u);
}

TEST(DeadlinePressure, EnabledD2tcpChangesTransportBehavior) {
  // Same cell, d2tcp on vs off: deadline-aware backoff must actually alter
  // the run (otherwise the flag is dead wiring).
  const auto on = sweep::run_scenario(rpc_point(600.0, true), true);
  const auto off = sweep::run_scenario(rpc_point(600.0, false), true);
  ASSERT_TRUE(on.ok && off.ok);
  EXPECT_NE(on.info.at("digest"), off.info.at("digest"));
}

// --- FCT CSV pattern/deadline columns (satellite: FCT provenance) -------

TEST(WorkloadPlane, FctCsvCarriesPatternAndDeadlineColumns) {
  const std::string csv = tmp_path("rpc_fct.csv");
  sweep::SweepPoint pt = rpc_point(600.0, true);
  pt.opts.set("fct_csv", csv);
  const auto rec = sweep::run_scenario(pt, /*quiet=*/true);
  ASSERT_TRUE(rec.ok) << rec.error;

  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "flow,bytes,bin,start_us,fct_us,service,pattern,deadline_us,"
            "deadline_met,group,stage");
  std::size_t rows = 0;
  std::size_t rpc_rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++rows;
    if (line.find(",rpc,") != std::string::npos) ++rpc_rows;
    // Every RPC flow carries a deadline, so deadline_met is never blank:
    // the line ends ",<0|1>,<group>,0".
    EXPECT_NE(line.back(), ',');
  }
  EXPECT_EQ(rows, 200u);
  EXPECT_EQ(rpc_rows, 200u);
}
