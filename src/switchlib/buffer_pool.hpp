// Shared buffer pool across switch ports (the "service pool" of commodity
// switching chips, §II.B of the paper), kept as a byte ledger: every member
// port owns a slot, and each buffered byte is charged to exactly one slot
// (the dpdk-switch qlen_bytes_in/out accounting, without the wrap-around).
//
// Ledger invariants, enforced here and property-tested in
// tests/test_buffer_pool.cpp:
//   - sum over slots of slot_bytes() == bytes()        (conservation)
//   - bytes() <= limit(), so free_bytes() never wraps   (no overcommit)
//   - release() of bytes never charged throws           (no negative slots)
//
// Admission policy (who may charge how much) lives in buffer_policy.hpp;
// the pool only accounts. Per-service-pool ECN marking compares the POOL
// occupancy to a threshold, which couples queues on different ports — the
// isolation violation the paper predicts for this mode.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "telemetry/metrics.hpp"

namespace pmsb::switchlib {

class BufferPool {
 public:
  using SlotId = std::size_t;

  explicit BufferPool(std::uint64_t limit_bytes) : limit_(limit_bytes) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Adds a ledger slot (one per member port). Register every member before
  /// traffic starts: equal-division shares are limit() / num_slots().
  [[nodiscard]] SlotId register_slot() {
    slots_.push_back(0);
    return slots_.size() - 1;
  }

  /// Charges `bytes` to `slot`. The admission policy must have checked
  /// free_bytes() first; charging past the limit is a ledger bug.
  void charge(SlotId slot, std::uint64_t bytes) {
    if (bytes > free_bytes()) {
      throw std::logic_error("BufferPool: charge exceeds free pool (admission "
                             "must check free_bytes() first)");
    }
    slots_.at(slot) += bytes;
    bytes_ += bytes;
  }

  /// Returns `bytes` from `slot` to the free pool. Releasing bytes the slot
  /// never charged is a ledger bug, not a clamp.
  void release(SlotId slot, std::uint64_t bytes) {
    std::uint64_t& cell = slots_.at(slot);
    if (bytes > cell) {
      throw std::logic_error(
          "BufferPool: release of bytes never charged (slot underflow)");
    }
    cell -= bytes;
    bytes_ -= bytes;
  }

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t limit() const { return limit_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return limit_ - bytes_; }
  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t slot_bytes(SlotId slot) const {
    return slots_.at(slot);
  }

  /// Registers the pool's gauges under `labels`: `buffer.free_pool_bytes`
  /// (the DT control variable), `buffer.pool_occupancy_bytes`, and
  /// `buffer.pool_limit_bytes`. Pure registration — no packet-path cost.
  void bind_metrics(telemetry::MetricsRegistry& registry, telemetry::LabelSetId labels) {
    registry.gauge_fn(
        "buffer.free_pool_bytes", labels,
        [this] { return static_cast<double>(free_bytes()); }, "bytes");
    registry.gauge_fn(
        "buffer.pool_occupancy_bytes", labels,
        [this] { return static_cast<double>(bytes_); }, "bytes");
    registry.gauge_fn(
        "buffer.pool_limit_bytes", labels,
        [this] { return static_cast<double>(limit_); }, "bytes");
  }

 private:
  std::uint64_t limit_;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint64_t> slots_;  ///< per-member occupancy ledger
};

}  // namespace pmsb::switchlib
