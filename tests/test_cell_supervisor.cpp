// Tests for the CellSupervisor: process-isolated sweep cells, exit-class
// classification (segv / oom / hang / throw via the PMSB_CRASH_AT injection
// hook), the retry/quarantine policy, the quarantined cell's record as its
// repro input, and the acceptance property that healthy cells report
// bit-identically whether they ran isolated or in-process.
//
// Crash-class tests are skipped under ASan/TSan: ASan turns SIGSEGV into a
// plain exit(1) and its shadow allocator cannot live under RLIMIT_AS, so
// the classes those tests assert on do not exist in sanitized builds.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "sweep/cell_supervisor.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/json_reader.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PMSB_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PMSB_SANITIZED 1
#endif
#endif
#ifndef PMSB_SANITIZED
#define PMSB_SANITIZED 0
#endif

using namespace pmsb;
using pmsb::experiments::Options;
namespace fs = std::filesystem;

namespace {

/// Sets an environment variable for the lifetime of the scope. The crash
/// hook reads PMSB_CRASH_AT at cell start, so scoping it keeps injections
/// from leaking into sibling tests.
struct ScopedEnv {
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  const char* name_;
};

/// Smallest real scenario: a 5 ms dumbbell run (~15 ms wall).
Options dumbbell_base() {
  Options base;
  base.set("topology", "dumbbell");
  base.set("duration_ms", "5");
  base.set("seed", "7");
  return base;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The JSON document at `path`.
telemetry::json::Value read_json(const std::string& path) {
  std::ifstream in(path);
  return telemetry::json::parse(
      std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
}

sweep::SweepPoint bare_point(std::size_t index = 0) {
  sweep::SweepPoint point;
  point.index = index;
  point.label = "cell";
  point.opts = dumbbell_base();
  return point;
}

}  // namespace

// --- classification units (no fork) ------------------------------------

TEST(ExitClass, NamesAreStable) {
  EXPECT_STREQ(sweep::exit_class_name(sweep::ExitClass::kOk), "ok");
  EXPECT_STREQ(sweep::exit_class_name(sweep::ExitClass::kThrow), "throw");
  EXPECT_STREQ(sweep::exit_class_name(sweep::ExitClass::kSignal), "signal");
  EXPECT_STREQ(sweep::exit_class_name(sweep::ExitClass::kTimeout), "timeout");
  EXPECT_STREQ(sweep::exit_class_name(sweep::ExitClass::kOom), "oom");
}

TEST(ExitClass, OnlyCrashClassesAreRetryable) {
  EXPECT_FALSE(sweep::exit_class_retryable(sweep::ExitClass::kOk));
  EXPECT_FALSE(sweep::exit_class_retryable(sweep::ExitClass::kThrow));
  EXPECT_TRUE(sweep::exit_class_retryable(sweep::ExitClass::kSignal));
  EXPECT_TRUE(sweep::exit_class_retryable(sweep::ExitClass::kTimeout));
  EXPECT_TRUE(sweep::exit_class_retryable(sweep::ExitClass::kOom));
}

TEST(ReproBundle, FileNamePadsLikeManifests) {
  // A cell's repro input is its record, padded to the grid's width.
  EXPECT_EQ(sweep::manifest_file_name(7, 10), "run_007.json");
  EXPECT_EQ(sweep::manifest_file_name(7, 2000), "run_0007.json");
}

// --- one child, each failure shape -------------------------------------

TEST(RunCellInChild, HealthyCellCompletesOk) {
  const auto outcome = sweep::run_cell_in_child(bare_point(), {}, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kOk) << outcome.error;
  EXPECT_TRUE(outcome.error.empty());
  EXPECT_GT(outcome.peak_rss_bytes, 0.0);
  EXPECT_FALSE(outcome.hard_killed);
}

TEST(RunCellInChild, ThrowShipsTheExactMessageOverThePipe) {
  const ScopedEnv inject("PMSB_CRASH_AT", "0:throw");
  const auto outcome = sweep::run_cell_in_child(bare_point(), {}, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kThrow);
  EXPECT_EQ(outcome.exit_code, 2);
  EXPECT_EQ(outcome.error, "[crash_at] injected throw (cell 0, attempt 1)");
}

TEST(RunCellInChild, SegvClassifiedAsSignalWithName) {
  if (PMSB_SANITIZED) GTEST_SKIP() << "ASan converts SIGSEGV to exit(1)";
  const ScopedEnv inject("PMSB_CRASH_AT", "0:segv");
  const auto outcome = sweep::run_cell_in_child(bare_point(), {}, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kSignal);
  EXPECT_EQ(outcome.exit_signal, SIGSEGV);
  EXPECT_NE(outcome.error.find("SIGSEGV"), std::string::npos) << outcome.error;
}

TEST(RunCellInChild, OomUnderAddressSpaceCapClassified) {
  if (PMSB_SANITIZED) GTEST_SKIP() << "shadow memory cannot live under RLIMIT_AS";
  const ScopedEnv inject("PMSB_CRASH_AT", "0:oom");
  sweep::CellLimits limits;
  limits.mem_mb = 512;
  const auto outcome = sweep::run_cell_in_child(bare_point(), limits, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kOom);
  EXPECT_NE(outcome.error.find("[oom]"), std::string::npos) << outcome.error;
  EXPECT_NE(outcome.error.find("cell_mem_mb=512"), std::string::npos)
      << outcome.error;
}

TEST(RunCellInChild, HangIsHardKilledPastTheWallBudget) {
  const ScopedEnv inject("PMSB_CRASH_AT", "0:hang");
  sweep::CellLimits limits;
  limits.wall_s = 0.2;  // hard kill at 0.2 * 1.25 + 0.5 = 0.75 s
  const auto outcome = sweep::run_cell_in_child(bare_point(), limits, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kTimeout);
  EXPECT_TRUE(outcome.hard_killed);
  EXPECT_EQ(outcome.exit_signal, SIGKILL);
  EXPECT_NE(outcome.error.find("[cell_timeout] hard kill"), std::string::npos)
      << outcome.error;
}

// --- full sweeps under the supervisor ----------------------------------

namespace {

sweep::SweepConfig isolated_config(const std::string& dir) {
  sweep::SweepConfig cfg;
  cfg.jobs = 1;
  cfg.isolate = true;
  cfg.manifest_dir = dir;
  cfg.retry_backoff_ms = 5.0;  // tests should not sleep for real
  return cfg;
}

}  // namespace

TEST(IsolatedSweep, HealthyCellsBitIdenticalToInProcessRun) {
  // The acceptance property: same grid, once in-process then once
  // isolated — every deterministic_signature must match exactly.
  const auto pts =
      sweep::expand_grid(dumbbell_base(), "scheme:pmsb,tcn;queues:2,4");
  ASSERT_EQ(pts.size(), 4u);
  const std::string dir = fresh_dir("iso_bit_identical");

  sweep::SweepConfig in_process;
  in_process.jobs = 1;
  in_process.manifest_dir = dir;
  const auto reference = sweep::run_sweep(pts, in_process);

  const auto isolated = sweep::run_sweep(pts, isolated_config(dir));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(reference[i].ok) << reference[i].error;
    ASSERT_TRUE(isolated[i].ok) << isolated[i].error;
    EXPECT_FALSE(isolated[i].salvaged);
    EXPECT_EQ(isolated[i].attempts, 1u);
    EXPECT_EQ(isolated[i].exit_class, "ok");
    EXPECT_GT(isolated[i].peak_rss_bytes, 0.0);
    EXPECT_EQ(sweep::deterministic_signature(reference[i]),
              sweep::deterministic_signature(isolated[i]))
        << pts[i].label;
  }
}

TEST(IsolatedSweep, EmptyManifestDirGetsAPrivateTempDir) {
  const auto pts = sweep::expand_grid(dumbbell_base(), "scheme:pmsb");
  sweep::SweepConfig cfg;
  cfg.jobs = 1;
  cfg.isolate = true;
  const auto recs = sweep::run_sweep(pts, cfg);
  ASSERT_TRUE(recs[0].ok) << recs[0].error;
  ASSERT_FALSE(recs[0].manifest_path.empty());
  EXPECT_TRUE(fs::exists(recs[0].manifest_path));
  fs::remove_all(fs::path(recs[0].manifest_path).parent_path());
}

TEST(IsolatedSweep, InjectedCrashQuarantinesOnlyThatCell) {
  if (PMSB_SANITIZED) GTEST_SKIP() << "ASan converts SIGSEGV to exit(1)";
  const ScopedEnv inject("PMSB_CRASH_AT", "1:segv");
  const auto pts = sweep::expand_grid(dumbbell_base(), "scheme:pmsb,tcn,none");
  const std::string dir = fresh_dir("iso_quarantine");
  const auto recs = sweep::run_sweep(pts, isolated_config(dir));

  EXPECT_TRUE(recs[0].ok) << recs[0].error;
  EXPECT_TRUE(recs[2].ok) << recs[2].error;
  ASSERT_FALSE(recs[1].ok);
  EXPECT_TRUE(recs[1].quarantined);
  EXPECT_EQ(recs[1].exit_class, "signal");
  EXPECT_EQ(recs[1].exit_signal, SIGSEGV);
  EXPECT_EQ(recs[1].attempts, 1u);
  // The quarantined cell leaves one failed record carrying the supervisor
  // diagnostics and the exact config: its repro input.
  const auto record = read_json(recs[1].manifest_path);
  EXPECT_EQ(record.at("schema").string, "pmsb.sweep_cell/1");
  EXPECT_FALSE(record.at("ok").boolean);
  EXPECT_TRUE(record.at("quarantined").boolean);
  EXPECT_EQ(record.at("exit_class").string, "signal");
  EXPECT_EQ(record.at("exit_signal").number, static_cast<double>(SIGSEGV));
  EXPECT_GE(record.at("attempts").number, 1.0);
  EXPECT_EQ(record.at("index").number, 1.0);
  EXPECT_EQ(record.at("label").string, pts[1].label);
  EXPECT_EQ(record.at("config").at("scheme").string, "tcn");
  std::set<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files,
            (std::set<std::string>{"run_000.json", "run_001.json", "run_002.json"}));
}

TEST(IsolatedSweep, TransientCrashRetriesAndConvergesWithoutDuplicates) {
  if (PMSB_SANITIZED) GTEST_SKIP() << "ASan converts SIGSEGV to exit(1)";
  // Crash only the first attempt of cell 0: the retry must succeed, and the
  // record dir must end up exactly as if nothing had ever crashed — one
  // completed record per cell, no stale failed one.
  const ScopedEnv inject("PMSB_CRASH_AT", "0:segv@1");
  const auto pts = sweep::expand_grid(dumbbell_base(), "scheme:pmsb,none");
  const std::string dir = fresh_dir("iso_retry");
  auto cfg = isolated_config(dir);
  cfg.cell_retries = 2;
  const auto recs = sweep::run_sweep(pts, cfg);

  ASSERT_TRUE(recs[0].ok) << recs[0].error;
  EXPECT_EQ(recs[0].attempts, 2u);
  EXPECT_FALSE(recs[0].quarantined);
  ASSERT_TRUE(recs[1].ok) << recs[1].error;
  EXPECT_EQ(recs[1].attempts, 1u);

  std::set<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"run_000.json", "run_001.json"}));
  for (const auto& r : recs) EXPECT_TRUE(sweep::read_cell_record(r.manifest_path).ok);
}

TEST(IsolatedSweep, DeterministicThrowQuarantinesWithoutRetry) {
  // `throw` is a deterministic class: even with retries budgeted, the cell
  // quarantines after one attempt.
  const ScopedEnv inject("PMSB_CRASH_AT", "0:throw");
  const auto pts = sweep::expand_grid(dumbbell_base(), "scheme:pmsb,none");
  const std::string dir = fresh_dir("iso_throw");
  auto cfg = isolated_config(dir);
  cfg.cell_retries = 3;
  const auto recs = sweep::run_sweep(pts, cfg);

  ASSERT_FALSE(recs[0].ok);
  EXPECT_TRUE(recs[0].quarantined);
  EXPECT_EQ(recs[0].exit_class, "throw");
  EXPECT_EQ(recs[0].attempts, 1u);
  EXPECT_EQ(recs[0].error, "[crash_at] injected throw (cell 0, attempt 1)");
  EXPECT_TRUE(recs[1].ok) << recs[1].error;

  // Report plumbing: the quarantine count and per-run fields land in the
  // pmsb.sweep_report/1 JSON, and the quarantined row names its record.
  const std::string json = sweep::sweep_report_json(recs, 1, 0.0);
  EXPECT_NE(json.find("\"quarantined\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_class\":\"throw\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"manifest\":\"" + recs[0].manifest_path + "\""), std::string::npos)
      << json;
  const std::string csv = sweep::sweep_report_csv(recs);
  EXPECT_NE(csv.find("index,label,ok,attempts,exit_class,error"),
            std::string::npos);
  // The error holds a comma, so its CSV field is quoted.
  EXPECT_NE(csv.find(",throw,\"[crash_at] injected throw (cell 0, attempt 1)\","),
            std::string::npos)
      << csv;
}

TEST(IsolatedSweep, ReproBundleReRunsTheExactCell) {
  const ScopedEnv inject("PMSB_CRASH_AT", "1:throw");
  const auto pts = sweep::expand_grid(dumbbell_base(), "scheme:pmsb,tcn");
  const std::string dir = fresh_dir("iso_repro_rerun");
  const auto recs = sweep::run_sweep(pts, isolated_config(dir));
  ASSERT_FALSE(recs[1].ok);
  ASSERT_FALSE(recs[1].manifest_path.empty());

  // Loading the record recovers a runnable point: with the injection still
  // set the cell fails again, and with it gone (the record captures config,
  // not environment) the cell completes.
  const auto record = sweep::read_cell_record(recs[1].manifest_path);
  sweep::SweepPoint point;
  point.index = record.index;
  point.label = record.label;
  for (const auto& [k, v] : record.config) point.opts.set(k, v);
  EXPECT_EQ(point.opts.values(), pts[1].opts.values());
  EXPECT_EQ(sweep::run_cell_in_child(point, {}, 1, "").exit_class,
            sweep::ExitClass::kThrow);
  ::unsetenv("PMSB_CRASH_AT");
  const auto outcome = sweep::run_cell_in_child(point, {}, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kOk) << outcome.error;
}

TEST(IsolatedSweep, ReproBundleNamesTheSeedTheCellRanWith) {
  // No seed= anywhere: the quarantined cell ran with the default seed, and
  // its record must say so.
  Options base;
  base.set("topology", "dumbbell");
  base.set("duration_ms", "5");
  base.set("fault_test", "break_invariant");
  const auto pts = sweep::expand_grid(base, "scheme:pmsb");
  const std::string dir = fresh_dir("iso_repro_seed");
  const auto recs = sweep::run_sweep(pts, isolated_config(dir));
  ASSERT_FALSE(recs[0].ok);
  EXPECT_TRUE(recs[0].quarantined);
  ASSERT_FALSE(recs[0].manifest_path.empty());
  const auto record = read_json(recs[0].manifest_path);
  EXPECT_EQ(record.at("schema").string, "pmsb.sweep_cell/1");
  ASSERT_NE(record.find("seed"), nullptr);
  EXPECT_EQ(record.at("seed").raw_number, "1");
}

TEST(IsolatedSweep, WedgedCallbackIsTheDeadlineBlindSpotAndGetsHardKilled) {
  // The regression for the cell_timeout_s blind spot: a callback that
  // never returns starves the in-child watchdog (its tick is a sim event),
  // so only the supervisor's parent-side hard kill ends the cell.
  sweep::SweepPoint point = bare_point();
  point.opts.set("fault_test", "wedge_callback");
  point.opts.set("cell_timeout_s", "0.2");
  sweep::CellLimits limits;
  limits.wall_s = 0.2;
  const auto outcome = sweep::run_cell_in_child(point, limits, 1, "");
  EXPECT_EQ(outcome.exit_class, sweep::ExitClass::kTimeout);
  EXPECT_TRUE(outcome.hard_killed) << "the watchdog cannot trip in a wedged cell";
  EXPECT_NE(outcome.error.find("never ran its deadline tick"), std::string::npos)
      << outcome.error;
}
