#include "telemetry/sampler.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "telemetry/run_report.hpp"

namespace pmsb::telemetry {

TimeSeriesSampler::TimeSeriesSampler(sim::Simulator& simulator, sim::TimeNs period)
    : sim_(simulator), period_(period) {
  if (period <= 0) {
    throw std::invalid_argument("TimeSeriesSampler: period must be positive");
  }
}

TimeSeriesSampler::~TimeSeriesSampler() = default;

void TimeSeriesSampler::add_probe(std::string name, std::function<double()> fn) {
  if (running_) throw std::logic_error("TimeSeriesSampler: add column after start()");
  Column c;
  c.name = std::move(name);
  c.probe = std::move(fn);
  cols_.push_back(std::move(c));
}

void TimeSeriesSampler::add_rate(std::string name, std::function<std::uint64_t()> fn) {
  if (running_) throw std::logic_error("TimeSeriesSampler: add column after start()");
  Column c;
  c.name = std::move(name);
  c.rate_source = std::move(fn);
  cols_.push_back(std::move(c));
}

void TimeSeriesSampler::start() {
  if (running_) return;
  running_ = true;
  for (Column& c : cols_) {
    if (c.rate_source) c.prev = c.rate_source();
  }
  // First row fires at the current time; scheduling (rather than sampling
  // inline) keeps every row inside an event so now() is always consistent.
  pending_ = sim_.schedule_in(0, [this] { sample(); });
}

void TimeSeriesSampler::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != sim::kInvalidEventId) sim_.cancel(pending_);
  pending_ = sim::kInvalidEventId;
}

void TimeSeriesSampler::stream_to(const std::string& path) {
  if (running_) throw std::logic_error("TimeSeriesSampler: stream_to after start()");
  auto out = std::make_unique<std::ofstream>(path);
  if (!*out) {
    throw std::runtime_error("TimeSeriesSampler::stream_to: cannot open " + path);
  }
  stream_ = std::move(out);
  stream_header_written_ = false;
}

void TimeSeriesSampler::sample() {
  if (!running_) return;
  times_us_.push_back(sim::to_microseconds(sim_.now()));
  const double period_s = static_cast<double>(period_) * 1e-9;
  for (Column& c : cols_) {
    double v = 0.0;
    if (c.probe) {
      v = c.probe();
    } else if (c.rate_source) {
      const std::uint64_t cur = c.rate_source();
      v = static_cast<double>(cur - c.prev) / period_s;
      c.prev = cur;
    }
    c.data.push_back(v);
  }
  if (stream_) {
    if (!stream_header_written_) {
      write_header(*stream_);
      stream_header_written_ = true;
    }
    write_row(*stream_, times_us_.size() - 1);
    // Flush each row: a watchdog abort unwinds through the event loop and
    // must not take the tail of the series with it.
    stream_->flush();
  }
  pending_ = sim_.schedule_in(period_, [this] { sample(); });
}

void TimeSeriesSampler::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("TimeSeriesSampler::write_csv: cannot open " + path);
  }
  write_header(out);
  for (std::size_t row = 0; row < times_us_.size(); ++row) write_row(out, row);
}

void TimeSeriesSampler::write_header(std::ostream& out) const {
  out << "time_us";
  for (const Column& c : cols_) out << ',' << c.name;
  out << '\n';
}

void TimeSeriesSampler::write_row(std::ostream& out, std::size_t row) const {
  out << format_double(times_us_[row]);
  for (const Column& c : cols_) out << ',' << c.data[row];
  out << '\n';
}

}  // namespace pmsb::telemetry
