// Deterministic run digests for the regression plane.
//
// A RunDigest consumes the canonical event stream of one simulation run —
// enqueue/dequeue/mark/drop at switch ports, send on links and transports,
// ack at senders, plus final per-entity stats — and folds it into an
// order-sensitive streaming 128-bit hash (FNV-1a with the 128-bit prime,
// implemented in-repo on 64-bit limbs; no dependencies). Two runs of the
// same scenario + seed must produce byte-identical digests; any behavioral
// divergence, however small, flips the hash.
//
// Localization: every event also folds into a per-entity sub-digest (one
// per port, per link, per flow), so a mismatch names the entity that
// diverged instead of "something differs". Periodic checkpoints of the
// stream hash (with deterministic compaction, so memory stays bounded on
// long runs) bracket WHERE in the event stream the first divergence lies;
// the divergence finder then re-runs the cell with a windowed journal armed
// and reports the first event inside that window (time, entity, kind).
//
// Events arrive through regress::DigestObserver (digest_observer.hpp), a
// net::PacketObserver on the components' tap lists; with no digest attached
// the packet path pays one empty-list check per event.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pmsb::regress {

/// Streaming FNV-1a 128-bit hash on two 64-bit limbs (portable: no
/// __int128). hash = (hash XOR byte) * kPrime per byte, mod 2^128.
class Hash128 {
 public:
  void update_byte(std::uint8_t b) {
    lo_ ^= b;
    multiply_prime();
  }

  /// Folds a 64-bit word in little-endian byte order.
  void update_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void update_bytes(const void* data, std::size_t n);
  void update_string(const std::string& s) { update_bytes(s.data(), s.size()); }

  [[nodiscard]] std::uint64_t hi() const { return hi_; }
  [[nodiscard]] std::uint64_t lo() const { return lo_; }
  /// 32 lowercase hex characters (hi then lo).
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const Hash128& a, const Hash128& b) {
    return a.hi_ == b.hi_ && a.lo_ == b.lo_;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) { return !(a == b); }

 private:
  void multiply_prime();

  // FNV-1a 128 offset basis.
  std::uint64_t hi_ = 0x6c62272e07bb0142ull;
  std::uint64_t lo_ = 0x62b821756295c58dull;
};

/// 64-bit FNV-1a over a string — used to fold stat KEYS into the event
/// stream as a single word.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& s);

/// Canonical event kinds the digest recognizes. The numeric values are part
/// of the digest definition — append, never renumber.
enum class EventKind : std::uint8_t {
  kEnqueue = 0,
  kDequeue = 1,
  kMark = 2,
  kDrop = 3,
  kSend = 4,
  kAck = 5,
  kStat = 6,
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// Index of a registered entity (port, link, flow) inside one RunDigest.
using EntityId = std::uint32_t;

class RunDigest {
 public:
  /// A stream-hash checkpoint taken after `index` events.
  struct Checkpoint {
    std::uint64_t index = 0;
    Hash128 hash;
  };

  /// One journaled event (only recorded inside an armed window).
  struct JournalRecord {
    std::uint64_t index = 0;   ///< 0-based position in the event stream
    std::int64_t time = 0;     ///< simulated time (ns)
    EntityId entity = 0;
    EventKind kind = EventKind::kEnqueue;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  /// `checkpoint_interval` events between stream-hash checkpoints. When the
  /// checkpoint vector would exceed a fixed cap, every other entry is
  /// dropped and the interval doubles — deterministic for a given stream.
  explicit RunDigest(std::uint64_t checkpoint_interval = kDefaultInterval);

  /// Interns `name` and returns its id. Names must be unique per digest.
  EntityId register_entity(const std::string& name);

  /// Folds one event. Hot path: inlined, no allocation outside checkpoint /
  /// journal maintenance.
  void event(EntityId entity, EventKind kind, std::int64_t time, std::uint64_t a,
             std::uint64_t b) {
    const std::uint64_t words[4] = {
        static_cast<std::uint64_t>(kind), static_cast<std::uint64_t>(time), a, b};
    stream_.update_u64(entity);
    Hash128& sub = entities_[entity].hash;
    for (const std::uint64_t w : words) {
      stream_.update_u64(w);
      sub.update_u64(w);
    }
    const std::uint64_t index = count_++;
    if (journal_cap_ != 0 && index >= journal_lo_ && index < journal_hi_ &&
        journal_.size() < journal_cap_) {
      journal_.push_back({index, time, entity, kind, a, b});
    }
    if (++since_checkpoint_ == interval_) {
      since_checkpoint_ = 0;
      take_checkpoint();
    }
  }

  /// Folds a final per-entity statistic as a kStat event (time 0, a = the
  /// FNV-64 of the key, b = the value). Feed these AFTER the run so the two
  /// sides of a comparison agree on stream position.
  void stat(EntityId entity, const std::string& key, std::uint64_t value) {
    event(entity, EventKind::kStat, 0, fnv1a64(key), value);
  }
  void stat_f(EntityId entity, const std::string& key, double value);

  /// Records raw events with stream index in [lo, hi) — at most `cap` of
  /// them — for divergence localization. Arm before the run starts.
  void arm_journal(std::uint64_t lo, std::uint64_t hi, std::size_t cap = 1 << 16);

  /// The combined digest: stream hash + event count + every sub-digest in
  /// entity-name order (so registration order cannot matter).
  [[nodiscard]] Hash128 total() const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] const Hash128& stream() const { return stream_; }
  [[nodiscard]] std::uint64_t checkpoint_interval() const { return interval_; }
  [[nodiscard]] const std::vector<Checkpoint>& checkpoints() const {
    return checkpoints_;
  }
  [[nodiscard]] const std::vector<JournalRecord>& journal() const { return journal_; }

  [[nodiscard]] std::size_t num_entities() const { return entities_.size(); }
  [[nodiscard]] const std::string& entity_name(EntityId id) const {
    return entities_.at(id).name;
  }
  [[nodiscard]] const Hash128& sub_digest(EntityId id) const {
    return entities_.at(id).hash;
  }
  /// Entity name -> sub-digest hex, for baselines and mismatch reports.
  [[nodiscard]] std::map<std::string, std::string> sub_digest_hex() const;

  static constexpr std::uint64_t kDefaultInterval = 1024;

 private:
  struct Entity {
    std::string name;
    Hash128 hash;
  };

  void take_checkpoint();

  Hash128 stream_;
  std::uint64_t count_ = 0;
  std::vector<Entity> entities_;

  std::uint64_t interval_;
  std::uint64_t since_checkpoint_ = 0;
  std::vector<Checkpoint> checkpoints_;

  std::uint64_t journal_lo_ = 0;
  std::uint64_t journal_hi_ = 0;
  std::size_t journal_cap_ = 0;
  std::vector<JournalRecord> journal_;
};

}  // namespace pmsb::regress
