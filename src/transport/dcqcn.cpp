#include "transport/dcqcn.hpp"

#include <algorithm>

namespace pmsb::transport {

// ---------------------------------------------------------------------------
// DcqcnSender
// ---------------------------------------------------------------------------

DcqcnSender::DcqcnSender(sim::Simulator& simulator, net::Host& local,
                         net::HostId remote, net::FlowId flow, net::ServiceId service,
                         std::uint64_t message_bytes, DcqcnConfig config)
    : sim_(simulator),
      local_(local),
      remote_(remote),
      flow_(flow),
      service_(service),
      message_bytes_(message_bytes),
      cfg_(config),
      rc_(static_cast<double>(config.line_rate)),
      rt_(static_cast<double>(config.line_rate)) {}

void DcqcnSender::start(sim::TimeNs at) {
  if (started_) return;
  started_ = true;
  sim_.schedule_at(at, [this] {
    schedule_alpha_timer();
    schedule_increase_timer();
    if (!send_loop_active_) {
      send_loop_active_ = true;
      send_next();
    }
  });
}

void DcqcnSender::send_next() {
  if (done_sending()) {
    send_loop_active_ = false;
    return;
  }
  const std::uint64_t remaining =
      message_bytes_ == 0 ? cfg_.mtu_payload : message_bytes_ - bytes_sent_;
  const auto payload =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cfg_.mtu_payload, remaining));
  net::Packet pkt;
  pkt.id = sim_.allocate_packet_id();
  pkt.flow_id = flow_;
  pkt.src = local_.id();
  pkt.dst = remote_;
  pkt.service = service_;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = payload + sim::kHeaderBytes;
  pkt.seq = seq_;
  pkt.ect = true;
  pkt.fin = message_bytes_ > 0 && bytes_sent_ + payload >= message_bytes_;
  seq_ += payload;
  bytes_sent_ += payload;
  ++stats_.packets_sent;
  const std::uint32_t wire = pkt.size_bytes;
  local_.send(std::move(pkt));
  // Pace the next packet at the current rate.
  const double rate = std::max(rc_, static_cast<double>(cfg_.min_rate));
  const auto gap = static_cast<sim::TimeNs>(static_cast<double>(wire) * 8.0 / rate * 1e9);
  sim_.schedule_in(std::max<sim::TimeNs>(gap, 1), [this] { send_next(); });
}

void DcqcnSender::on_cnp() {
  ++stats_.cnps_received;
  ++stats_.rate_cuts;
  rt_ = rc_;
  rc_ = std::max(rc_ * (1.0 - alpha_ / 2.0), static_cast<double>(cfg_.min_rate));
  alpha_ = (1.0 - cfg_.g) * alpha_ + cfg_.g;
  cnp_since_alpha_timer_ = true;
  rounds_since_cut_ = 0;
}

void DcqcnSender::schedule_alpha_timer() {
  sim_.schedule_in(cfg_.alpha_timer, [this] {
    if (!cnp_since_alpha_timer_) alpha_ = (1.0 - cfg_.g) * alpha_;
    cnp_since_alpha_timer_ = false;
    if (!done_sending()) schedule_alpha_timer();
  });
}

void DcqcnSender::schedule_increase_timer() {
  sim_.schedule_in(cfg_.increase_timer, [this] {
    increase_round();
    if (!done_sending()) schedule_increase_timer();
  });
}

void DcqcnSender::increase_round() {
  ++stats_.increase_rounds;
  ++rounds_since_cut_;
  if (rounds_since_cut_ > cfg_.fast_recovery_rounds) {
    // Additive (then hyper) increase raises the target.
    const double bump = rounds_since_cut_ > 3 * cfg_.fast_recovery_rounds
                            ? static_cast<double>(cfg_.hyper_increase)
                            : static_cast<double>(cfg_.additive_increase);
    rt_ = std::min(rt_ + bump, static_cast<double>(cfg_.line_rate));
  }
  // Fast recovery: close half the gap to the target each round.
  rc_ = std::min((rt_ + rc_) / 2.0, static_cast<double>(cfg_.line_rate));
}

// ---------------------------------------------------------------------------
// DcqcnReceiver
// ---------------------------------------------------------------------------

DcqcnReceiver::DcqcnReceiver(sim::Simulator& simulator, net::Host& local,
                             net::HostId remote, net::FlowId flow,
                             net::ServiceId service, std::uint64_t message_bytes,
                             DcqcnConfig config)
    : sim_(simulator),
      local_(local),
      remote_(remote),
      flow_(flow),
      service_(service),
      message_bytes_(message_bytes),
      cfg_(config) {}

void DcqcnReceiver::on_data(const net::Packet& pkt) {
  bytes_received_ += pkt.payload_bytes();
  if (pkt.ce) {
    ++marked_packets_;
    // Notification point: at most one CNP per interval.
    if (last_cnp_ < 0 || sim_.now() - last_cnp_ >= cfg_.cnp_interval) {
      last_cnp_ = sim_.now();
      net::Packet cnp;
      cnp.id = sim_.allocate_packet_id();
      cnp.flow_id = flow_;
      cnp.src = local_.id();
      cnp.dst = remote_;
      cnp.service = service_;
      cnp.type = net::PacketType::kCnp;
      cnp.size_bytes = net::kAckBytes;
      cnp.ect = false;
      local_.send(std::move(cnp));
      ++cnps_sent_;
    }
  }
  if (!completed_ && message_bytes_ > 0 && bytes_received_ >= message_bytes_) {
    completed_ = true;
    if (on_complete_) on_complete_(sim_.now());
  }
}

// ---------------------------------------------------------------------------
// DcqcnFlow
// ---------------------------------------------------------------------------

DcqcnFlow::DcqcnFlow(sim::Simulator& simulator, net::Host& src, net::Host& dst,
                     net::FlowId flow, net::ServiceId service,
                     std::uint64_t message_bytes, DcqcnConfig config)
    : src_(src), dst_(dst), flow_(flow) {
  sender_ = std::make_unique<DcqcnSender>(simulator, src, dst.id(), flow, service,
                                          message_bytes, config);
  receiver_ = std::make_unique<DcqcnReceiver>(simulator, dst, src.id(), flow, service,
                                              message_bytes, config);
  src_.register_flow(flow_, [s = sender_.get()](const net::Packet& pkt) {
    if (pkt.type == net::PacketType::kCnp) s->on_cnp();
  });
  dst_.register_flow(flow_, [r = receiver_.get()](const net::Packet& pkt) {
    if (pkt.is_data()) r->on_data(pkt);
  });
}

DcqcnFlow::~DcqcnFlow() {
  src_.unregister_flow(flow_);
  dst_.unregister_flow(flow_);
}

}  // namespace pmsb::transport
