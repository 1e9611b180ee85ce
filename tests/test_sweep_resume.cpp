// Tests for resumable sweeps: per-cell record salvage (kill a sweep, re-run
// it, keep the finished cells), the validation that refuses stale or
// corrupt records, the per-cell wall-clock deadline, and the
// pmsb.sweep_report/1 golden round-trip through the real JSON reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "sweep/scenario_run.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/json_reader.hpp"

using namespace pmsb;
using pmsb::experiments::Options;
namespace fs = std::filesystem;

namespace {

Options leafspine_base() {
  Options base;
  base.set("topology", "leafspine");
  base.set("flows", "40");
  base.set("seed", "11");
  return base;
}

/// Fresh empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// SweepConfig that records which cells actually executed (vs salvaged).
struct CountingConfig {
  sweep::SweepConfig cfg;
  std::mutex mutex;
  std::vector<std::size_t> ran;

  explicit CountingConfig(const sweep::SweepConfig& base) : cfg(base) {
    cfg.on_cell_run = [this](std::size_t index) {
      const std::lock_guard<std::mutex> lock(mutex);
      ran.push_back(index);
    };
  }
  std::vector<std::size_t> sorted_runs() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::size_t> out = ran;
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// wall_ms is the one nondeterministic per-run report field; zero it so two
/// reports of the same records can be compared byte-for-byte.
std::vector<sweep::RunRecord> zero_wall(std::vector<sweep::RunRecord> recs) {
  for (auto& r : recs) r.wall_ms = 0.0;
  return recs;
}

/// Like zero_wall, but for isolated sweeps: also normalizes the live
/// execution measurements (attempts, peak rss) that legitimately differ
/// between a salvaged cell and one that re-ran in a child.
std::vector<sweep::RunRecord> zero_live(std::vector<sweep::RunRecord> recs) {
  for (auto& r : recs) {
    r.wall_ms = 0.0;
    r.attempts = 1;
    r.peak_rss_bytes = 0.0;
  }
  return recs;
}

/// Scoped PMSB_CRASH_AT: the injection must not leak into sibling tests.
struct ScopedEnv {
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  const char* name_;
};

}  // namespace

// --- kill-and-resume equivalence ---------------------------------------

TEST(ResumeSweep, ResumeAfterPartialLossMatchesUninterruptedRun) {
  const auto pts =
      sweep::expand_grid(leafspine_base(), "load:0.3,0.7;scheme:pmsb,tcn");
  ASSERT_EQ(pts.size(), 4u);

  // Reference: one uninterrupted sweep (its records double as the baseline
  // the resumed sweep must reproduce). Then simulate a kill mid-grid: lose
  // two records, truncate a third.
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  cfg.manifest_dir = fresh_dir("resume_victim");
  const auto first = sweep::run_sweep(pts, cfg);
  const auto& reference = first;
  for (const auto& r : reference) ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(fs::remove(first[1].manifest_path));
  ASSERT_TRUE(fs::remove(first[3].manifest_path));
  const std::string whole = read_file(first[2].manifest_path);
  sweep::write_text_file(first[2].manifest_path,
                         whole.substr(0, whole.size() / 2));

  CountingConfig resume(cfg);
  resume.cfg.resume = true;
  const auto resumed = sweep::run_sweep(pts, resume.cfg);

  // Only the missing/corrupt cells re-ran; cell 0 was salvaged.
  EXPECT_EQ(resume.sorted_runs(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(resumed[0].salvaged);
  EXPECT_FALSE(resumed[1].salvaged);
  EXPECT_FALSE(resumed[2].salvaged);
  EXPECT_FALSE(resumed[3].salvaged);

  // Record-for-record, the resumed sweep reproduces the uninterrupted one.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(resumed[i].ok) << resumed[i].error;
    EXPECT_EQ(sweep::deterministic_signature(reference[i]),
              sweep::deterministic_signature(resumed[i]))
        << pts[i].label;
  }

  // And so does the aggregated report, after zeroing the nondeterministic
  // wall_ms.
  EXPECT_EQ(sweep::sweep_report_json(zero_wall(first), cfg.jobs, 0.0),
            sweep::sweep_report_json(zero_wall(resumed), cfg.jobs, 0.0));

  // A second resume finds every record intact and re-runs nothing.
  CountingConfig again(resume.cfg);
  const auto salvage_all = sweep::run_sweep(pts, again.cfg);
  EXPECT_TRUE(again.sorted_runs().empty());
  for (const auto& r : salvage_all) EXPECT_TRUE(r.salvaged);
}

TEST(ResumeSweep, FailedCellStubIsRerunNotSalvaged) {
  Options base = leafspine_base();
  const auto pts = sweep::expand_grid(base, "scheme:pmsb,not-a-scheme");
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  cfg.manifest_dir = fresh_dir("resume_failed_stub");
  const auto first = sweep::run_sweep(pts, cfg);
  ASSERT_TRUE(first[0].ok) << first[0].error;
  ASSERT_FALSE(first[1].ok);
  // The failed cell still wrote its record, marked ok=false.
  ASSERT_FALSE(first[1].manifest_path.empty());
  const auto stub = sweep::read_cell_record(first[1].manifest_path);
  EXPECT_FALSE(stub.ok);
  EXPECT_EQ(stub.error, first[1].error);
  EXPECT_FALSE(stub.error.empty());

  CountingConfig resume(cfg);
  resume.cfg.resume = true;
  const auto resumed = sweep::run_sweep(pts, resume.cfg);
  EXPECT_EQ(resume.sorted_runs(), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(resumed[0].salvaged);
  EXPECT_FALSE(resumed[1].salvaged);
  EXPECT_FALSE(resumed[1].ok);
  EXPECT_EQ(resumed[1].error, first[1].error);
}

TEST(ResumeSweep, FailedCellStubNamesTheSeedTheCellRanWith) {
  // No seed= anywhere: the cell runs with the default seed, and its failed
  // record must say so.
  Options base;
  base.set("topology", "dumbbell");
  base.set("duration_ms", "5");
  base.set("fault_test", "break_invariant");
  const auto pts = sweep::expand_grid(base, "scheme:pmsb");
  sweep::SweepConfig cfg;
  cfg.manifest_dir = fresh_dir("failed_stub_seed");
  const auto recs = sweep::run_sweep(pts, cfg);
  ASSERT_FALSE(recs[0].ok);
  EXPECT_NE(recs[0].error.find("packet_conservation"), std::string::npos) << recs[0].error;
  const auto stub = telemetry::json::parse(read_file(recs[0].manifest_path));
  EXPECT_FALSE(stub.at("ok").boolean);
  EXPECT_EQ(stub.at("seed").raw_number, "1");
}

TEST(ResumeSweep, RejectedSeedFailsItsCellAlone) {
  // A seed the run rejects fails that cell alone: its record leaves out the
  // seed (the config echo still holds what was given), a resume re-runs
  // it, and the rest of the sweep runs on.
  Options base;
  base.set("topology", "dumbbell");
  base.set("duration_ms", "5");
  const auto pts = sweep::expand_grid(base, "seed:-1,2");
  sweep::SweepConfig cfg;
  cfg.manifest_dir = fresh_dir("rejected_seed");
  const auto recs = sweep::run_sweep(pts, cfg);
  ASSERT_EQ(recs.size(), 2u);
  ASSERT_FALSE(recs[0].ok);
  EXPECT_NE(recs[0].error.find("seed=-1"), std::string::npos) << recs[0].error;
  const auto record = telemetry::json::parse(read_file(recs[0].manifest_path));
  EXPECT_FALSE(record.at("ok").boolean);
  EXPECT_EQ(record.find("seed"), nullptr);
  EXPECT_EQ(record.at("config").at("seed").string, "-1");
  EXPECT_TRUE(recs[1].ok) << recs[1].error;
}

TEST(ResumeSweep, RenamedRecordDirectorySalvagesEveryCell) {
  // A record names no path in its config echo, so a checkpoint directory
  // that moved since it was written still salvages cell for cell.
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.3,0.7");
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  cfg.manifest_dir = fresh_dir("renamed_before");
  const auto first = sweep::run_sweep(pts, cfg);
  for (const auto& r : first) ASSERT_TRUE(r.ok) << r.error;
  const std::string moved = cfg.manifest_dir + "-moved";
  fs::remove_all(moved);
  fs::rename(cfg.manifest_dir, moved);

  sweep::SweepConfig again = cfg;
  again.manifest_dir = moved;
  again.resume = true;
  CountingConfig resume(again);
  const auto resumed = sweep::run_sweep(pts, resume.cfg);
  EXPECT_TRUE(resume.sorted_runs().empty());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(resumed[i].salvaged) << pts[i].label;
    EXPECT_EQ(resumed[i].manifest_path, moved + "/" + sweep::manifest_file_name(i, pts.size()));
    EXPECT_EQ(sweep::deterministic_signature(first[i]),
              sweep::deterministic_signature(resumed[i]));
  }
}

TEST(ResumeSweep, LeafSpineRecordIsSmallAndHoldsNoInstruments) {
  // A record holds the cell's report row, not the run's instrument dump:
  // a leaf-spine cell's checkpoint stays under 16 KB.
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.5");
  sweep::SweepConfig cfg;
  cfg.manifest_dir = fresh_dir("record_size");
  const auto recs = sweep::run_sweep(pts, cfg);
  ASSERT_TRUE(recs[0].ok) << recs[0].error;
  const std::string text = read_file(recs[0].manifest_path);
  EXPECT_LT(text.size(), 16u * 1024u);
  const auto record = telemetry::json::parse(text);
  EXPECT_EQ(record.at("schema").string, "pmsb.sweep_cell/1");
  EXPECT_EQ(record.find("metrics"), nullptr);
  EXPECT_EQ(record.at("results").object.size(), recs[0].results.size());
}

// --- try_salvage_cell validation ---------------------------------------

namespace {

/// A grid point plus the record a completed run of it wrote: the fixture
/// every salvage-refusal case starts from.
struct SalvagedCell {
  sweep::SweepPoint point;
  std::string manifest_path;
  sweep::RunRecord live;
};

SalvagedCell run_one_cell(const std::string& dir_name) {
  SalvagedCell out;
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.5");
  sweep::SweepConfig cfg;
  cfg.manifest_dir = fresh_dir(dir_name);
  const auto recs = sweep::run_sweep(pts, cfg);
  EXPECT_TRUE(recs[0].ok) << recs[0].error;
  out.point = pts[0];
  out.manifest_path = recs[0].manifest_path;
  out.live = recs[0];
  return out;
}

}  // namespace

TEST(TrySalvage, ValidManifestRehydratesBitIdentically) {
  const auto cell = run_one_cell("salvage_valid");
  const auto outcome = sweep::try_salvage_cell(cell.manifest_path, cell.point);
  ASSERT_TRUE(outcome.record.has_value()) << outcome.reason;
  EXPECT_TRUE(outcome.record->salvaged);
  EXPECT_EQ(outcome.record->manifest_path, cell.manifest_path);
  // The live measurements of the run that wrote the record do not carry over.
  EXPECT_GT(cell.live.wall_ms, 0.0);
  EXPECT_EQ(outcome.record->wall_ms, 0.0);
  EXPECT_EQ(outcome.record->attempts, 1u);
  EXPECT_EQ(sweep::deterministic_signature(*outcome.record),
            sweep::deterministic_signature(cell.live));
}

TEST(TrySalvage, RefusesMissingFile) {
  const auto cell = run_one_cell("salvage_missing");
  const auto outcome =
      sweep::try_salvage_cell(cell.manifest_path + ".nope", cell.point);
  EXPECT_FALSE(outcome.record.has_value());
  EXPECT_FALSE(outcome.reason.empty());
}

TEST(TrySalvage, RefusesTruncatedJson) {
  const auto cell = run_one_cell("salvage_truncated");
  const std::string whole = read_file(cell.manifest_path);
  sweep::write_text_file(cell.manifest_path, whole.substr(0, whole.size() / 3));
  const auto outcome = sweep::try_salvage_cell(cell.manifest_path, cell.point);
  EXPECT_FALSE(outcome.record.has_value());
  EXPECT_FALSE(outcome.reason.empty());
}

TEST(TrySalvage, RefusesWrongSchema) {
  const auto cell = run_one_cell("salvage_schema");
  std::string text = read_file(cell.manifest_path);
  const std::string from = "pmsb.sweep_cell/1";
  text.replace(text.find(from), from.size(), "pmsb.other_thing/9");
  sweep::write_text_file(cell.manifest_path, text);
  const auto outcome = sweep::try_salvage_cell(cell.manifest_path, cell.point);
  EXPECT_FALSE(outcome.record.has_value());
  EXPECT_NE(outcome.reason.find("schema"), std::string::npos) << outcome.reason;
}

TEST(TrySalvage, RefusesConfigDriftAndNamesTheKey) {
  const auto cell = run_one_cell("salvage_drift");
  sweep::SweepPoint drifted = cell.point;
  drifted.opts.set("seed", "999");  // grid changed since the manifest was cut
  const auto outcome = sweep::try_salvage_cell(cell.manifest_path, drifted);
  EXPECT_FALSE(outcome.record.has_value());
  EXPECT_NE(outcome.reason.find("seed"), std::string::npos) << outcome.reason;
}

TEST(TrySalvage, RefusesFailedStatusAndEmptyResults) {
  const auto cell = run_one_cell("salvage_status");
  // Records rewritten from the live one give exact control over ok /
  // results; the config echo stays the grid point's.
  sweep::RunRecord failed = cell.live;
  failed.ok = false;
  failed.error = "boom";
  failed.exit_class = "throw";
  sweep::write_cell_record(cell.manifest_path, cell.point, failed);
  auto outcome = sweep::try_salvage_cell(cell.manifest_path, cell.point);
  EXPECT_FALSE(outcome.record.has_value());
  EXPECT_NE(outcome.reason.find("failed [throw]: boom"), std::string::npos)
      << outcome.reason;

  sweep::RunRecord empty_results = cell.live;
  empty_results.results.clear();
  sweep::write_cell_record(cell.manifest_path, cell.point, empty_results);
  outcome = sweep::try_salvage_cell(cell.manifest_path, cell.point);
  EXPECT_FALSE(outcome.record.has_value());
  EXPECT_NE(outcome.reason.find("no results"), std::string::npos)
      << outcome.reason;
}

// --- per-cell deadline -------------------------------------------------

TEST(CellTimeout, TimedOutCellFailsAloneWithDiagnostic) {
  // cell_timeout_s as a grid dimension: the middle cell gets an absurdly
  // small budget (any wall-clock elapses more than 1 ns by the first
  // deadline tick), its siblings run unbounded.
  const auto pts =
      sweep::expand_grid(leafspine_base(), "cell_timeout_s:0,1e-9,0");
  ASSERT_EQ(pts.size(), 3u);
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  const auto recs = sweep::run_sweep(pts, cfg);

  EXPECT_TRUE(recs[0].ok) << recs[0].error;
  EXPECT_TRUE(recs[2].ok) << recs[2].error;
  ASSERT_FALSE(recs[1].ok);
  EXPECT_NE(recs[1].error.find("[cell_timeout]"), std::string::npos)
      << recs[1].error;
  EXPECT_NE(recs[1].error.find("phase=run"), std::string::npos) << recs[1].error;
  ASSERT_EQ(recs[1].info.count("failed_phase"), 1u);
  EXPECT_EQ(recs[1].info.at("failed_phase"), "run");
  EXPECT_GT(recs[1].wall_ms, 0.0);
}

TEST(CellTimeout, SweepWideBudgetFlowsThroughConfigAndSalvages) {
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.4,0.6");
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  cfg.cell_timeout_s = 3600.0;  // generous: nothing should trip
  cfg.manifest_dir = fresh_dir("timeout_config");
  const auto first = sweep::run_sweep(pts, cfg);
  for (const auto& r : first) {
    ASSERT_TRUE(r.ok) << r.error;
    // The budget is part of the cell's config echo...
    EXPECT_EQ(r.config.at("cell_timeout_s"), "3600");
  }
  // ...so a resume with the same budget salvages every cell.
  CountingConfig resume(cfg);
  resume.cfg.resume = true;
  const auto resumed = sweep::run_sweep(pts, resume.cfg);
  EXPECT_TRUE(resume.sorted_runs().empty());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(resumed[i].salvaged);
    EXPECT_EQ(sweep::deterministic_signature(first[i]),
              sweep::deterministic_signature(resumed[i]));
  }
}

TEST(CellTimeout, ResumeWithBiggerBudgetRerunsTimedOutCells) {
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.5");
  sweep::SweepConfig cfg;
  cfg.cell_timeout_s = 1e-9;  // everything times out
  cfg.manifest_dir = fresh_dir("timeout_retry");
  const auto first = sweep::run_sweep(pts, cfg);
  ASSERT_FALSE(first[0].ok);
  EXPECT_NE(first[0].error.find("[cell_timeout]"), std::string::npos);

  // The record is marked ok=false, so the resume re-runs the cell — and
  // with the bigger budget it completes.
  sweep::SweepConfig retry = cfg;
  retry.cell_timeout_s = 3600.0;
  retry.resume = true;
  CountingConfig counted(retry);
  const auto second = sweep::run_sweep(pts, counted.cfg);
  EXPECT_EQ(counted.sorted_runs(), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(second[0].ok) << second[0].error;
}

// --- resume x crashes (isolated sweeps) --------------------------------
// jobs stays 1 in these: run_sweep then forks from the calling thread,
// which keeps the fork single-threaded (TSan-safe) and deterministic.

TEST(ResumeCrashedSweep, QuarantinedCellsAreRerunNeverSalvaged) {
  // Pass 1: cell 1 quarantines on an injected deterministic throw (no
  // sanitizer caveats — nothing actually crashes). Its record must be marked
  // failed, and a resume must re-run exactly that cell — with the injection
  // gone the grid heals.
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.3,0.5,0.7");
  sweep::SweepConfig cfg;
  cfg.jobs = 1;
  cfg.isolate = true;
  cfg.manifest_dir = fresh_dir("resume_quarantine");
  cfg.retry_backoff_ms = 5.0;
  std::vector<sweep::RunRecord> crashed;
  {
    const ScopedEnv inject("PMSB_CRASH_AT", "1:throw");
    crashed = sweep::run_sweep(pts, cfg);
  }
  ASSERT_TRUE(crashed[0].ok) << crashed[0].error;
  ASSERT_FALSE(crashed[1].ok);
  EXPECT_TRUE(crashed[1].quarantined);
  EXPECT_EQ(crashed[1].exit_class, "throw");
  ASSERT_TRUE(crashed[2].ok) << crashed[2].error;

  CountingConfig resume(cfg);
  resume.cfg.resume = true;
  const auto resumed = sweep::run_sweep(pts, resume.cfg);
  EXPECT_EQ(resume.sorted_runs(), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(resumed[0].salvaged);
  EXPECT_FALSE(resumed[1].salvaged);
  EXPECT_TRUE(resumed[1].ok) << resumed[1].error;
  EXPECT_FALSE(resumed[1].quarantined);
  EXPECT_TRUE(resumed[2].salvaged);

  // The healed grid's report is bit-identical to an uninterrupted isolated
  // run of the same grid, modulo the live wall/attempt/rss measurements.
  const auto uninterrupted = sweep::run_sweep(pts, cfg);
  for (const auto& r : uninterrupted) ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(sweep::sweep_report_json(zero_live(resumed), cfg.jobs, 0.0),
            sweep::sweep_report_json(zero_live(uninterrupted), cfg.jobs, 0.0));
}

TEST(ResumeCrashedSweep, ResumeAcrossModesSalvagesIsolatedManifests) {
  // Records written by isolated children are indistinguishable from
  // in-process ones: an in-process resume salvages them all (and the other
  // direction holds too — the echo carries the same keys either way).
  const auto pts = sweep::expand_grid(leafspine_base(), "load:0.4,0.6");
  sweep::SweepConfig iso;
  iso.jobs = 1;
  iso.isolate = true;
  iso.manifest_dir = fresh_dir("resume_cross_mode");
  const auto first = sweep::run_sweep(pts, iso);
  for (const auto& r : first) ASSERT_TRUE(r.ok) << r.error;

  sweep::SweepConfig in_process = iso;
  in_process.isolate = false;
  in_process.resume = true;
  CountingConfig resume(in_process);
  const auto resumed = sweep::run_sweep(pts, resume.cfg);
  EXPECT_TRUE(resume.sorted_runs().empty());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(resumed[i].salvaged);
    EXPECT_EQ(sweep::deterministic_signature(first[i]),
              sweep::deterministic_signature(resumed[i]));
  }
}

TEST(ResumeCrashedSweep, ZeroLengthDumbbellWindowIsOkAndSalvages) {
  // duration_ms=0 measures an empty window. Its rates read 0 Gbps, not the
  // NaN of a division by zero, which a record writes as null and salvage
  // refuses: the isolated cells finish ok, and a resume salvages them all.
  Options base;
  base.set("topology", "dumbbell");
  base.set("duration_ms", "0");
  const auto pts = sweep::expand_grid(base, "scheme:pmsb,tcn");
  sweep::SweepConfig iso;
  iso.isolate = true;
  iso.manifest_dir = fresh_dir("zero_window");
  const auto first = sweep::run_sweep(pts, iso);
  for (const auto& r : first) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.results.at("throughput_gbps.q0"), 0.0);
    EXPECT_EQ(r.results.at("throughput_gbps.q1"), 0.0);
  }

  CountingConfig resume(iso);
  resume.cfg.resume = true;
  const auto resumed = sweep::run_sweep(pts, resume.cfg);
  EXPECT_TRUE(resume.sorted_runs().empty());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(resumed[i].salvaged) << resumed[i].error;
    EXPECT_EQ(sweep::deterministic_signature(first[i]),
              sweep::deterministic_signature(resumed[i]));
  }
}

// --- golden sweep report -----------------------------------------------

TEST(SweepReport, GoldenRoundTripThroughJsonReader) {
  const auto pts =
      sweep::expand_grid(leafspine_base(), "scheme:pmsb,not-a-scheme");
  sweep::SweepConfig cfg;
  cfg.jobs = 2;
  cfg.manifest_dir = fresh_dir("report_golden");
  const auto recs = sweep::run_sweep(pts, cfg);
  ASSERT_TRUE(recs[0].ok);
  ASSERT_FALSE(recs[1].ok);

  const std::string json = sweep::sweep_report_json(recs, cfg.jobs, 1.5);
  const auto doc = telemetry::json::parse(json);
  EXPECT_EQ(doc.at("schema").string, "pmsb.sweep_report/1");
  EXPECT_EQ(doc.at("jobs").number, 2.0);
  EXPECT_EQ(doc.at("points").number, 2.0);
  EXPECT_EQ(doc.at("failed").number, 1.0);
  EXPECT_EQ(doc.at("wall_s").number, 1.5);

  const auto& runs = doc.at("runs").array;
  ASSERT_EQ(runs.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& run = runs[i];
    const auto& rec = recs[i];
    EXPECT_EQ(run.at("index").number, static_cast<double>(rec.index));
    EXPECT_EQ(run.at("label").string, rec.label);
    EXPECT_EQ(run.at("ok").boolean, rec.ok);
    if (rec.ok) {
      EXPECT_EQ(run.find("error"), nullptr);
    } else {
      EXPECT_EQ(run.at("error").string, rec.error);
    }
    // Every config / info / results entry round-trips exactly — doubles
    // are written at %.17g, so the parse is bit-exact.
    EXPECT_EQ(run.at("config").object.size(), rec.config.size());
    for (const auto& [k, v] : rec.config) EXPECT_EQ(run.at("config").at(k).string, v);
    EXPECT_EQ(run.at("info").object.size(), rec.info.size());
    for (const auto& [k, v] : rec.info) EXPECT_EQ(run.at("info").at(k).string, v);
    EXPECT_EQ(run.at("results").object.size(), rec.results.size());
    for (const auto& [k, v] : rec.results) {
      EXPECT_EQ(run.at("results").at(k).number, v) << k;
    }
    EXPECT_EQ(run.at("sim_time_us").number, rec.sim_time_us);
    EXPECT_EQ(run.at("wall_ms").number, rec.wall_ms);
    ASSERT_FALSE(rec.manifest_path.empty());
    EXPECT_EQ(run.at("manifest").string, rec.manifest_path);
  }
}

TEST(SweepReport, ByteStableAcrossSameSeedRuns) {
  const auto pts =
      sweep::expand_grid(leafspine_base(), "load:0.3,0.7;scheme:pmsb,tcn");
  sweep::SweepConfig cfg;
  cfg.jobs = 4;
  cfg.manifest_dir = fresh_dir("report_stable");  // same dir: same record paths
  const auto a = sweep::run_sweep(pts, cfg);
  const auto b = sweep::run_sweep(pts, cfg);
  EXPECT_EQ(sweep::sweep_report_json(zero_wall(a), cfg.jobs, 0.0),
            sweep::sweep_report_json(zero_wall(b), cfg.jobs, 0.0));
}
