#include "regress/matrix.hpp"

#include <initializer_list>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pmsb::regress {

namespace {

RegressCell cell(std::string name,
                 std::initializer_list<std::pair<const char*, const char*>> kv) {
  RegressCell c;
  c.name = std::move(name);
  for (const auto& [k, v] : kv) c.opts.set(k, v);
  return c;
}

}  // namespace

std::vector<RegressCell> default_matrix() {
  std::vector<RegressCell> cells;
  cells.push_back(cell("dumbbell-pmsb-dwrr",
                       {{"topology", "dumbbell"},
                        {"scheme", "pmsb"},
                        {"scheduler", "dwrr"},
                        {"queues", "2"},
                        {"flows_per_queue", "1,4"},
                        {"duration_ms", "20"},
                        {"seed", "1"}}));
  cells.push_back(cell("dumbbell-tcn-wfq-deq",
                       {{"topology", "dumbbell"},
                        {"scheme", "tcn"},
                        {"scheduler", "wfq"},
                        {"mark_point", "dequeue"},
                        {"queues", "2"},
                        {"flows_per_queue", "2,2"},
                        {"duration_ms", "20"},
                        {"seed", "2"}}));
  cells.push_back(cell("dumbbell-perqueue-sp",
                       {{"topology", "dumbbell"},
                        {"scheme", "perqueue-std"},
                        {"scheduler", "sp"},
                        {"queues", "2"},
                        {"flows_per_queue", "1,1"},
                        {"duration_ms", "20"},
                        {"seed", "1"}}));
  cells.push_back(cell("dumbbell-pmsb-bleach",
                       {{"topology", "dumbbell"},
                        {"scheme", "pmsb"},
                        {"scheduler", "dwrr"},
                        {"queues", "2"},
                        {"flows_per_queue", "2,2"},
                        {"bleach", "0.5"},
                        {"duration_ms", "20"},
                        {"seed", "3"}}));
  cells.push_back(cell("leafspine-pmsb-low",
                       {{"topology", "leafspine"},
                        {"scheme", "pmsb"},
                        {"scheduler", "dwrr"},
                        {"flows", "80"},
                        {"load", "0.3"},
                        {"seed", "7"}}));
  cells.push_back(cell("leafspine-mqecn",
                       {{"topology", "leafspine"},
                        {"scheme", "mqecn"},
                        {"scheduler", "dwrr"},
                        {"flows", "60"},
                        {"load", "0.5"},
                        {"seed", "3"}}));
  // Flow-lifetime paths: deadline RPCs under loss and jittered delay make
  // retransmits, timeouts and late duplicates reach completed flows ...
  cells.push_back(cell("leafspine-rpc-lossy",
                       {{"topology", "leafspine"},
                        {"scheme", "pmsb"},
                        {"scheduler", "dwrr"},
                        {"pattern", "rpc"},
                        {"rpcs", "40"},
                        {"d2tcp", "1"},
                        {"faults", "loss:*->*:0.002;delay:spine0->*:30us+20us"},
                        {"seed", "4"}}));
  // ... and a stage barrier releases flows to start at the instant of the
  // completion that crosses it.
  cells.push_back(cell("leafspine-coflow-2stage",
                       {{"topology", "leafspine"},
                        {"scheme", "pmsb"},
                        {"scheduler", "dwrr"},
                        {"pattern", "coflow"},
                        {"stages", "2"},
                        {"coflows", "4"},
                        {"mappers", "3"},
                        {"reducers", "3"},
                        {"seed", "3"}}));
  return cells;
}

std::vector<RegressCell> select_cells(const std::string& names) {
  std::vector<RegressCell> all = default_matrix();
  if (names.empty()) return all;

  std::set<std::string> want;
  std::stringstream ss(names);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) want.insert(tok);
  }
  std::vector<RegressCell> out;
  for (RegressCell& c : all) {
    if (want.erase(c.name)) out.push_back(std::move(c));
  }
  if (!want.empty()) {
    throw std::invalid_argument("unknown regression cell '" + *want.begin() + "'");
  }
  return out;
}

}  // namespace pmsb::regress
