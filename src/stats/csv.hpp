// CSV export of measurement series so results can be re-plotted outside
// the simulator (gnuplot / matplotlib / spreadsheets).
#pragma once

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/fct.hpp"

namespace pmsb::stats {

/// `cell` as one CSV field: quoted, with quotes doubled, when it holds a
/// comma, a quote or a newline; unchanged otherwise.
inline std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path) : out_(path) {
    if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  }

  void row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out_ << csv_escape(cells[i]);
      if (i + 1 < cells.size()) out_ << ',';
    }
    out_ << '\n';
  }

 private:
  std::ofstream out_;
};

/// One row per completed flow. `pattern` names the workload family that
/// produced the flow; `deadline_us`/`deadline_met` are empty for flows with
/// no deadline, and `group`/`stage` are empty for flows outside any
/// coflow/RPC group — so coflow and RPC results stay analyzable offline.
inline void write_fct_csv(const std::string& path, const FctCollector& fct) {
  CsvWriter csv(path);
  csv.row({"flow", "bytes", "bin", "start_us", "fct_us", "service", "pattern",
           "deadline_us", "deadline_met", "group", "stage"});
  for (const auto& r : fct.records()) {
    csv.row({std::to_string(r.flow), std::to_string(r.bytes),
             size_bin_name(size_bin(r.bytes)),
             std::to_string(sim::to_microseconds(r.start)),
             std::to_string(sim::to_microseconds(r.fct)),
             std::to_string(static_cast<int>(r.service)), pattern_tag_name(r.pattern),
             r.deadline == 0 ? "" : std::to_string(sim::to_microseconds(r.deadline)),
             r.deadline == 0 ? "" : (r.deadline_met ? "1" : "0"),
             r.group == kNoGroupId ? "" : std::to_string(r.group),
             r.group == kNoGroupId ? "" : std::to_string(r.stage)});
  }
}

}  // namespace pmsb::stats
