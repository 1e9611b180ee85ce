// pmsbregress — the regression gate for the PMSB simulator.
//
//   pmsbregress record baseline=FILE [cells=a,b]
//   pmsbregress check  baseline=FILE [cells=a,b] [perturb=key=value]
//   pmsbregress diff   a=FILE b=FILE
//
// record  runs every cell of the pinned matrix (src/regress/matrix.cpp) with
//         the run digest armed and writes a pmsb.baseline/1 JSON.
// check   re-runs the same cells against a recorded baseline. A digest
//         mismatch triggers the divergence finder: the cell is re-run once
//         with a windowed journal armed over the checkpoint bracket, and the
//         report names the first diverging event (time, entity, kind).
//         perturb= injects an extra option into every cell (e.g.
//         perturb=bleach=0.5) — used by CI to prove the gate actually trips.
// diff    compares two baseline files cell by cell without running anything.
//
// The gate is digest-only; timing is perf/run.py's job (perf/README.md).
// Each subcommand rejects keys it does not take, so a misspelled cells= or
// a stale perf= fails instead of being ignored.
//
// Exit codes: 0 ok, 1 digest mismatch / baselines differ, 2 usage or I/O
// error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "regress/baseline.hpp"
#include "regress/digest.hpp"
#include "regress/divergence.hpp"
#include "regress/matrix.hpp"
#include "sweep/scenario_run.hpp"
#include "telemetry/run_report.hpp"

using namespace pmsb;
using pmsb::experiments::Options;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pmsbregress record baseline=FILE [cells=a,b]\n"
               "       pmsbregress check  baseline=FILE [cells=a,b] "
               "[perturb=key=value]\n"
               "       pmsbregress diff   a=FILE b=FILE\n");
  return 2;
}

/// Applies `perturb=key=value` (Options::from_args splits on the FIRST '=',
/// so the value still carries the inner "key=value") onto `opts`.
void apply_perturb(Options& opts, const std::string& perturb) {
  if (perturb.empty()) return;
  const auto eq = perturb.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("perturb= wants key=value, got '" + perturb + "'");
  }
  opts.set(perturb.substr(0, eq), perturb.substr(eq + 1));
}

/// Runs one matrix cell with an external digest armed. `perturb` ("" = none)
/// is applied on top of the cell's pinned config.
void run_cell(const regress::RegressCell& cell, const std::string& perturb,
              regress::RunDigest& digest) {
  sweep::SweepPoint point;
  point.opts = cell.opts;
  apply_perturb(point.opts, perturb);
  const auto rec = sweep::run_scenario(point, /*quiet=*/true, &digest);
  if (!rec.ok) {
    throw std::runtime_error("cell '" + cell.name + "' failed: " + rec.error);
  }
}

/// The digest-derived part of a CellBaseline (name/config left to the
/// caller).
void fill_from_digest(regress::CellBaseline& cb, const regress::RunDigest& d) {
  cb.digest = d.total().hex();
  cb.event_count = d.count();
  cb.sub_digests = d.sub_digest_hex();
  cb.checkpoint_interval = d.checkpoint_interval();
  cb.checkpoints.clear();
  for (const auto& cp : d.checkpoints()) {
    cb.checkpoints.emplace_back(cp.index, cp.hash.hex());
  }
}

int cmd_record(const Options& opts) {
  opts.validate_keys({"baseline", "cells"});
  const std::string path = opts.get("baseline");
  if (path.empty()) {
    std::fprintf(stderr, "pmsbregress record: baseline= is required\n");
    return usage();
  }
  const auto cells = regress::select_cells(opts.get("cells"));

  regress::Baseline baseline;
  baseline.git = telemetry::build_git_describe();

  for (const auto& cell : cells) {
    regress::RunDigest digest;
    run_cell(cell, "", digest);
    regress::CellBaseline cb;
    cb.name = cell.name;
    cb.config = cell.opts.values();
    fill_from_digest(cb, digest);
    std::printf("recorded %-26s digest=%s events=%llu\n", cell.name.c_str(),
                cb.digest.c_str(), static_cast<unsigned long long>(cb.event_count));
    baseline.cells.push_back(std::move(cb));
  }

  regress::write_baseline(path, baseline);
  std::printf("wrote %s (%zu cells)\n", path.c_str(), baseline.cells.size());
  return 0;
}

int cmd_check(const Options& opts) {
  opts.validate_keys({"baseline", "cells", "perturb"});
  const std::string path = opts.get("baseline");
  if (path.empty()) {
    std::fprintf(stderr, "pmsbregress check: baseline= is required\n");
    return usage();
  }
  const auto baseline = regress::read_baseline(path);
  const auto cells = regress::select_cells(opts.get("cells"));
  const std::string perturb = opts.get("perturb");

  int failures = 0;
  std::size_t checked = 0;
  for (const auto& cell : cells) {
    const auto* base = baseline.find(cell.name);
    if (base == nullptr) {
      std::printf("SKIP %-26s not in baseline (record to pin it)\n",
                  cell.name.c_str());
      continue;
    }
    ++checked;

    regress::RunDigest digest;
    run_cell(cell, perturb, digest);

    if (digest.total().hex() != base->digest) {
      ++failures;
      const auto report = regress::find_divergence(
          *base, digest, [&](regress::RunDigest& replay) {
            run_cell(cell, perturb, replay);
          });
      std::printf("FAIL %-26s %s\n", cell.name.c_str(),
                  report.summary().c_str());
      continue;
    }
    std::printf("ok   %-26s digest match (%llu events)\n", cell.name.c_str(),
                static_cast<unsigned long long>(digest.count()));
  }

  std::printf("check: %zu cells, %d failure%s (baseline git %s)\n", checked,
              failures, failures == 1 ? "" : "s", baseline.git.c_str());
  return failures == 0 ? 0 : 1;
}

int cmd_diff(const Options& opts) {
  opts.validate_keys({"a", "b"});
  const std::string path_a = opts.get("a");
  const std::string path_b = opts.get("b");
  if (path_a.empty() || path_b.empty()) {
    std::fprintf(stderr, "pmsbregress diff: a= and b= are required\n");
    return usage();
  }
  const auto a = regress::read_baseline(path_a);
  const auto b = regress::read_baseline(path_b);

  std::set<std::string> names;
  for (const auto& c : a.cells) names.insert(c.name);
  for (const auto& c : b.cells) names.insert(c.name);

  int differing = 0;
  for (const auto& name : names) {
    const auto* ca = a.find(name);
    const auto* cb = b.find(name);
    if (ca == nullptr || cb == nullptr) {
      ++differing;
      std::printf("DIFF %-26s only in %s\n", name.c_str(),
                  ca != nullptr ? path_a.c_str() : path_b.c_str());
      continue;
    }
    if (ca->digest == cb->digest) {
      std::printf("same %-26s digest %s\n", name.c_str(), ca->digest.c_str());
      continue;
    }
    ++differing;
    std::printf("DIFF %-26s digest %s -> %s, events %llu -> %llu\n",
                name.c_str(), ca->digest.c_str(), cb->digest.c_str(),
                static_cast<unsigned long long>(ca->event_count),
                static_cast<unsigned long long>(cb->event_count));
    // Name the entities whose sub-digests moved (or exist on one side only).
    std::set<std::string> entities;
    for (const auto& [ent, hex] : ca->sub_digests) {
      const auto it = cb->sub_digests.find(ent);
      if (it == cb->sub_digests.end() || it->second != hex) entities.insert(ent);
    }
    for (const auto& [ent, hex] : cb->sub_digests) {
      if (ca->sub_digests.count(ent) == 0) entities.insert(ent);
    }
    for (const auto& ent : entities) {
      std::printf("     entity %s\n", ent.c_str());
    }
  }

  std::printf("diff: %zu cells, %d differing (%s git %s, %s git %s)\n",
              names.size(), differing, path_a.c_str(), a.git.c_str(),
              path_b.c_str(), b.git.c_str());
  return differing == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Options opts = Options::from_args(argc - 1, argv + 1);
    if (cmd == "record") return cmd_record(opts);
    if (cmd == "check") return cmd_check(opts);
    if (cmd == "diff") return cmd_diff(opts);
    std::fprintf(stderr, "pmsbregress: unknown command '%s'\n", cmd.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmsbregress %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
}
