#include "trace/tracer.hpp"

#include <fstream>
#include <stdexcept>

#include "telemetry/run_report.hpp"

namespace pmsb::trace {

void Tracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer::write_ndjson: cannot open " + path);
  for_each_chronological([&out](const Record& r) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("t_us").value(sim::to_microseconds(r.time));
    w.key("event").value(event_kind_name(r.kind));
    w.key("packet").value(r.packet);
    w.key("flow").value(static_cast<std::uint64_t>(r.flow));
    w.key("queue").value(static_cast<std::uint64_t>(r.queue));
    w.key("port_bytes").value(r.port_bytes);
    w.end_object();
    out << w.str() << '\n';
  });
}

}  // namespace pmsb::trace
