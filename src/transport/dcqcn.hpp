// DCQCN (Zhu et al., SIGCOMM 2015) — the rate-based congestion control for
// RDMA deployments, cited by the paper as the other major ECN consumer in
// datacenters.
//
// Simplified but structurally faithful model:
//  - the sender paces packets at a current rate Rc (no window, no ACK clock)
//  - the receiver (notification point) sends at most one CNP per
//    `kCnpInterval` while marked packets keep arriving
//  - on CNP (reaction point): Rt <- Rc, Rc <- Rc*(1 - alpha/2),
//    alpha <- (1-g)*alpha + g
//  - alpha decays by (1-g) every `kAlphaTimer` without CNPs
//  - rate increase every `kIncreaseTimer`: fast recovery (Rc toward Rt) for
//    the first `kFastRecoveryRounds`, then additive (Rt += Rai), then
//    hyper-additive (Rt += Rhai)
//
// Delivery is RDMA-like: no retransmission. Run it on marking-enabled
// fabrics where ECN keeps buffers shallow; the receiver tracks delivered
// bytes and fires completion when the message is fully received.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace pmsb::transport {

/// DCQCN's parameters, fixed at the values every run uses.
namespace dcqcn {
inline constexpr std::uint32_t kMtuPayload = sim::kDefaultMssBytes;
inline constexpr sim::RateBps kLineRate = sim::gbps(10);  ///< initial and maximum rate
inline constexpr sim::RateBps kMinRate = sim::mbps(10);
inline constexpr double kG = 1.0 / 256.0;  ///< alpha gain
inline constexpr sim::TimeNs kCnpInterval = sim::microseconds(50);
inline constexpr sim::TimeNs kAlphaTimer = sim::microseconds(55);
inline constexpr sim::TimeNs kIncreaseTimer = sim::microseconds(55);
inline constexpr std::uint32_t kFastRecoveryRounds = 5;
inline constexpr sim::RateBps kAdditiveIncrease = sim::mbps(40);
inline constexpr sim::RateBps kHyperIncrease = sim::mbps(400);
}  // namespace dcqcn

struct DcqcnSenderStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t cnps_received = 0;
  std::uint64_t rate_cuts = 0;
  std::uint64_t increase_rounds = 0;
};

class DcqcnSender {
 public:
  DcqcnSender(sim::Simulator& simulator, net::Host& local, net::HostId remote,
              net::FlowId flow, net::ServiceId service, std::uint64_t message_bytes);

  /// Starts pacing packets at `at`; a message of 0 bytes runs forever.
  void start(sim::TimeNs at);

  /// Reaction-point input: a CNP arrived from the receiver.
  void on_cnp();

  [[nodiscard]] double current_rate_bps() const { return rc_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] const DcqcnSenderStats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool done_sending() const {
    return message_bytes_ > 0 && bytes_sent_ >= message_bytes_;
  }
  void send_next();
  void schedule_alpha_timer();
  void schedule_increase_timer();
  void increase_round();

  sim::Simulator& sim_;
  net::Host& local_;
  net::HostId remote_;
  net::FlowId flow_;
  net::ServiceId service_;
  std::uint64_t message_bytes_;

  double rc_ = static_cast<double>(dcqcn::kLineRate);  ///< current rate (bps)
  double rt_ = static_cast<double>(dcqcn::kLineRate);  ///< target rate (bps)
  double alpha_ = 1.0;
  bool cnp_since_alpha_timer_ = false;
  std::uint32_t rounds_since_cut_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t seq_ = 0;
  bool started_ = false;
  bool send_loop_active_ = false;
  DcqcnSenderStats stats_;
};

class DcqcnReceiver {
 public:
  using CompletionCallback = std::function<void(sim::TimeNs now)>;

  DcqcnReceiver(sim::Simulator& simulator, net::Host& local, net::HostId remote,
                net::FlowId flow, net::ServiceId service, std::uint64_t message_bytes);

  void on_data(const net::Packet& pkt);
  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t cnps_sent() const { return cnps_sent_; }
  [[nodiscard]] bool complete() const { return completed_; }

 private:
  sim::Simulator& sim_;
  net::Host& local_;
  net::HostId remote_;
  net::FlowId flow_;
  net::ServiceId service_;
  std::uint64_t message_bytes_;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t cnps_sent_ = 0;
  sim::TimeNs last_cnp_ = -1;
  bool completed_ = false;
  CompletionCallback on_complete_;
};

/// The two endpoints of a unidirectional DCQCN flow, sender at `src` and
/// receiver at `dst`. Their owner, a DcqcnFlowTable, hands them the flow's
/// arriving packets through deliver().
class DcqcnFlow {
 public:
  DcqcnFlow(sim::Simulator& simulator, net::Host& src, net::Host& dst,
            net::FlowId flow, net::ServiceId service, std::uint64_t message_bytes);
  DcqcnFlow(const DcqcnFlow&) = delete;
  DcqcnFlow& operator=(const DcqcnFlow&) = delete;

  void start(sim::TimeNs at) { sender_.start(at); }

  /// A CNP goes to the sender, a data packet to the receiver.
  void deliver(const net::Packet& pkt) {
    if (pkt.type == net::PacketType::kCnp) {
      sender_.on_cnp();
    } else if (pkt.is_data()) {
      receiver_.on_data(pkt);
    }
  }

  [[nodiscard]] DcqcnSender& sender() { return sender_; }
  [[nodiscard]] DcqcnReceiver& receiver() { return receiver_; }

 private:
  DcqcnSender sender_;
  DcqcnReceiver receiver_;
};

/// Owns DCQCN flows and is the flow demux of their hosts, in place of the
/// demux they had (on a dumbbell, the fabric's flow table): a host running
/// DCQCN runs no fabric flow. The table must outlive its hosts' last
/// delivery.
class DcqcnFlowTable final : public net::FlowDemux {
 public:
  DcqcnFlowTable() = default;
  DcqcnFlowTable(const DcqcnFlowTable&) = delete;
  DcqcnFlowTable& operator=(const DcqcnFlowTable&) = delete;

  /// Builds flow `flow` from `src` to `dst` and makes this table the demux
  /// of both hosts. Throws std::invalid_argument if the table holds `flow`.
  DcqcnFlow& add(sim::Simulator& simulator, net::Host& src, net::Host& dst,
                 net::FlowId flow, net::ServiceId service,
                 std::uint64_t message_bytes);

  bool deliver(net::Host& host, const net::Packet& pkt) override;

 private:
  std::map<net::FlowId, DcqcnFlow> flows_;
};

}  // namespace pmsb::transport
