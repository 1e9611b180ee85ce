#include "transport/dcqcn.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pmsb::transport {

// ---------------------------------------------------------------------------
// DcqcnSender
// ---------------------------------------------------------------------------

DcqcnSender::DcqcnSender(sim::Simulator& simulator, net::Host& local,
                         net::HostId remote, net::FlowId flow, net::ServiceId service,
                         std::uint64_t message_bytes)
    : sim_(simulator),
      local_(local),
      remote_(remote),
      flow_(flow),
      service_(service),
      message_bytes_(message_bytes) {}

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
      message_bytes_ == 0 ? dcqcn::kMtuPayload : message_bytes_ - bytes_sent_;
  const auto payload =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(dcqcn::kMtuPayload, remaining));
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
  const double rate = std::max(rc_, static_cast<double>(dcqcn::kMinRate));
  const auto gap = static_cast<sim::TimeNs>(static_cast<double>(wire) * 8.0 / rate * 1e9);
  sim_.schedule_in(std::max<sim::TimeNs>(gap, 1), [this] { send_next(); });
}

void DcqcnSender::on_cnp() {
  ++stats_.cnps_received;
  ++stats_.rate_cuts;
  rt_ = rc_;
  rc_ = std::max(rc_ * (1.0 - alpha_ / 2.0), static_cast<double>(dcqcn::kMinRate));
  alpha_ = (1.0 - dcqcn::kG) * alpha_ + dcqcn::kG;
  cnp_since_alpha_timer_ = true;
  rounds_since_cut_ = 0;
}

void DcqcnSender::schedule_alpha_timer() {
  sim_.schedule_in(dcqcn::kAlphaTimer, [this] {
    if (!cnp_since_alpha_timer_) alpha_ = (1.0 - dcqcn::kG) * alpha_;
    cnp_since_alpha_timer_ = false;
    if (!done_sending()) schedule_alpha_timer();
  });
}

void DcqcnSender::schedule_increase_timer() {
  sim_.schedule_in(dcqcn::kIncreaseTimer, [this] {
    increase_round();
    if (!done_sending()) schedule_increase_timer();
  });
}

void DcqcnSender::increase_round() {
  ++stats_.increase_rounds;
  ++rounds_since_cut_;
  if (rounds_since_cut_ > dcqcn::kFastRecoveryRounds) {
    // Additive (then hyper) increase raises the target.
    const double bump = rounds_since_cut_ > 3 * dcqcn::kFastRecoveryRounds
                            ? static_cast<double>(dcqcn::kHyperIncrease)
                            : static_cast<double>(dcqcn::kAdditiveIncrease);
    rt_ = std::min(rt_ + bump, static_cast<double>(dcqcn::kLineRate));
  }
  // Fast recovery: close half the gap to the target each round.
  rc_ = std::min((rt_ + rc_) / 2.0, static_cast<double>(dcqcn::kLineRate));
}

// ---------------------------------------------------------------------------
// DcqcnReceiver
// ---------------------------------------------------------------------------

DcqcnReceiver::DcqcnReceiver(sim::Simulator& simulator, net::Host& local,
                             net::HostId remote, net::FlowId flow,
                             net::ServiceId service, std::uint64_t message_bytes)
    : sim_(simulator),
      local_(local),
      remote_(remote),
      flow_(flow),
      service_(service),
      message_bytes_(message_bytes) {}

void DcqcnReceiver::on_data(const net::Packet& pkt) {
  bytes_received_ += pkt.payload_bytes();
  if (pkt.ce) {
    // Notification point: at most one CNP per interval.
    if (last_cnp_ < 0 || sim_.now() - last_cnp_ >= dcqcn::kCnpInterval) {
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
// DcqcnFlow, DcqcnFlowTable
// ---------------------------------------------------------------------------

DcqcnFlow::DcqcnFlow(sim::Simulator& simulator, net::Host& src, net::Host& dst,
                     net::FlowId flow, net::ServiceId service,
                     std::uint64_t message_bytes)
    : sender_(simulator, src, dst.id(), flow, service, message_bytes),
      receiver_(simulator, dst, src.id(), flow, service, message_bytes) {}

DcqcnFlow& DcqcnFlowTable::add(sim::Simulator& simulator, net::Host& src,
                               net::Host& dst, net::FlowId flow, net::ServiceId service,
                               std::uint64_t message_bytes) {
  const auto [it, added] = flows_.try_emplace(flow, simulator, src, dst, flow, service,
                                              message_bytes);
  if (!added) {
    throw std::invalid_argument("DcqcnFlowTable: flow " + std::to_string(flow) +
                                " is already in the table");
  }
  src.set_demux(this);
  dst.set_demux(this);
  return it->second;
}

bool DcqcnFlowTable::deliver(net::Host& /*host*/, const net::Packet& pkt) {
  const auto it = flows_.find(pkt.flow_id);
  if (it == flows_.end()) return false;
  it->second.deliver(pkt);
  return true;
}

}  // namespace pmsb::transport
