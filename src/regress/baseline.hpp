// Baseline store for the regression plane, schema `pmsb.baseline/1`.
//
// A baseline pins, for every cell of the regression matrix, the run digest:
// the total, the per-entity sub-digests and the stream checkpoints. Written
// via telemetry::JsonWriter, read back through the strict
// telemetry/json_reader — the same round-trip discipline as run manifests.
//
//   {
//     "schema": "pmsb.baseline/1", "git": "...",
//     "cells": [
//       {"name": "...", "config": {"key": "value", ...},
//        "digest": "<32 hex>", "event_count": N,
//        "sub_digests": {"entity": "<32 hex>", ...},
//        "checkpoint_interval": I,
//        "checkpoints": [{"i": N, "h": "<32 hex>"}, ...]}
//     ]
//   }
//
// The reader looks up only these keys, so a baseline that still carries the
// top-level "warmup"/"reps" and per-cell "perf" blocks older builds wrote
// parses to the same cells.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pmsb::regress {

struct CellBaseline {
  std::string name;
  std::map<std::string, std::string> config;
  std::string digest;  ///< RunDigest::total().hex()
  std::uint64_t event_count = 0;
  std::map<std::string, std::string> sub_digests;  ///< entity -> hex
  std::uint64_t checkpoint_interval = 0;           ///< final (post-compaction)
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;  ///< (index, hex)
};

struct Baseline {
  std::string git;
  std::vector<CellBaseline> cells;  ///< serialized sorted by name

  [[nodiscard]] const CellBaseline* find(const std::string& name) const;
};

[[nodiscard]] std::string baseline_json(const Baseline& baseline);

/// Writes baseline_json() to `path`; throws std::runtime_error on I/O error.
void write_baseline(const std::string& path, const Baseline& baseline);

/// Parses `text` as pmsb.baseline/1. `origin` names the source in error
/// messages. Throws std::runtime_error on malformed JSON, a wrong schema
/// string, or a document shape drift.
[[nodiscard]] Baseline parse_baseline(const std::string& text,
                                      const std::string& origin);

/// Reads and parses the baseline at `path`.
[[nodiscard]] Baseline read_baseline(const std::string& path);

}  // namespace pmsb::regress
