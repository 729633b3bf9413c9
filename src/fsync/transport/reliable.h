// ReliableChannel: an ordered, corruption-checked message stream layered
// over a lossy SimulatedChannel. Protocols keep their `SimulatedChannel&`
// signatures; wrapping the channel they run over in a ReliableChannel is
// all it takes to survive dropped, duplicated, reordered, and corrupted
// messages (the PR 1 fault injector and the seeded Bernoulli schedules of
// the chaos suite).
//
// Mechanism — classic ARQ specialized to the lockstep simulation:
//   - every logical Send is framed into one CRC32C-checked record with a
//     per-direction sequence number and a cumulative ack for the reverse
//     direction (see record.h);
//   - Receive drains the inner channel, discards corrupt records (CRC) and
//     duplicates (seq < next expected), parks out-of-order records in a
//     bounded reorder buffer, and delivers payloads strictly in sequence
//     order;
//   - when the expected record is missing, the pending deadline expires:
//     the deterministic SimClock advances by the current timeout, every
//     unacknowledged record of that direction is retransmitted through the
//     inner channel (faults apply again — a retransmit can itself be
//     lost), and the timeout doubles (exponential backoff, capped). After
//     `max_attempts` expiries Receive returns Status::Unavailable — the
//     peer-gone surface protocols propagate.
//
// Accounting: stats() forwards to the inner channel, so TrafficStats stay
// the wire truth (retransmitted bytes included) and the conformance
// invariants keep holding over a reliable channel. When an observer is
// attached, per-record overhead (header + CRC + framing delta) and the
// full cost of retransmissions are reattributed to Phase::kTransport, so
// BENCH_*.json shows exactly what reliability costs.
#ifndef FSYNC_TRANSPORT_RELIABLE_H_
#define FSYNC_TRANSPORT_RELIABLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "fsync/net/channel.h"
#include "fsync/transport/sim_clock.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::transport {

/// Retransmission policy.
struct ReliableParams {
  /// Receive deadline expiries tolerated per Receive call before giving
  /// up with Status::Unavailable. Each expiry retransmits everything
  /// unacknowledged in that direction.
  int max_attempts = 10;
  /// First deadline; doubles per expiry (exponential backoff).
  uint64_t initial_timeout_us = 50'000;
  /// Backoff cap.
  uint64_t max_timeout_us = 5'000'000;
};

/// Out-of-order records at most this far ahead of the expected sequence
/// number are buffered; records beyond the window are treated as lost.
inline constexpr uint32_t kReorderWindow = 64;

/// Transport-level counters (per channel; independent of any observer).
struct TransportCounters {
  uint64_t records_sent = 0;       // first transmissions
  uint64_t retransmits = 0;        // re-sent records
  uint64_t timeouts = 0;           // expired receive deadlines
  uint64_t corrupt_dropped = 0;    // CRC/frame failures
  uint64_t duplicate_dropped = 0;  // seq below next expected
  uint64_t reorder_buffered = 0;   // parked ahead of sequence
  uint64_t window_dropped = 0;     // beyond the reorder window
  uint64_t delivered = 0;          // payloads handed to the protocol
};

/// Reliability decorator over a (possibly faulty) SimulatedChannel.
/// Single-threaded, like the lockstep channel it wraps. The inner channel
/// must outlive this object, and protocol traffic must flow exclusively
/// through the wrapper once it is constructed.
class ReliableChannel final : public SimulatedChannel {
 public:
  /// `clock` may be shared with the test harness to inspect virtual
  /// time; pass nullptr to let the channel own a private one. Backoff
  /// and retries go exclusively through it, so every run is
  /// deterministic.
  explicit ReliableChannel(SimulatedChannel& inner,
                           ReliableParams params = {},
                           SimClock* clock = nullptr)
      : inner_(inner), params_(params),
        clock_(clock != nullptr ? clock : &own_clock_) {}

  // SimulatedChannel interface — the logical, reliable stream.
  void Send(Direction dir, ByteSpan payload) override;
  StatusOr<Bytes> Receive(Direction dir) override;
  bool HasPending(Direction dir) const override;
  const TrafficStats& stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }

  // Observation and fault hooks act on the inner channel: the observer
  // sees true wire costs, and injected faults hit raw records (the whole
  // point of the layer).
  void SetObserver(obs::SyncObserver* observer) override {
    inner_.SetObserver(observer);
  }
  obs::SyncObserver* observer() const override { return inner_.observer(); }
  void SetTamper(std::function<void(Direction, Bytes&)> tamper) override {
    inner_.SetTamper(std::move(tamper));
  }
  void SetFault(
      std::function<FaultAction(Direction, ByteSpan)> fault) override {
    inner_.SetFault(std::move(fault));
  }

  /// The logical transcript: payloads as handed to Send, before framing,
  /// sequencing, or retransmission. With a correct transport this stream
  /// is independent of the fault schedule (pinned by the chaos suite).
  void EnableTranscript() override { record_transcript_ = true; }
  const std::vector<TranscriptEntry>& transcript() const override {
    return transcript_;
  }

  /// Payloads in delivery order — the post-transport stream the protocol
  /// actually consumed. The logical-determinism test compares this
  /// against a fault-free run.
  const std::vector<TranscriptEntry>& delivered_transcript() const {
    return delivered_;
  }

  /// Drains raw records (discarding stale duplicates) and reports whether
  /// a logical message is still deliverable or parked out-of-order in
  /// `dir`. This, not HasPending, is the correct end-of-session drain
  /// check over a faulty link: duplicates of already-delivered records
  /// may legitimately linger in the raw queue.
  bool LogicalPending(Direction dir);

  const TransportCounters& counters() const { return counters_; }
  const SimClock& clock() const { return *clock_; }
  SimulatedChannel& inner() { return inner_; }

 private:
  struct DirState {
    // Sender half (records we sent in this direction).
    uint32_t next_seq = 0;
    std::deque<std::pair<uint32_t, Bytes>> unacked;  // (seq, payload)
    // Receiver half (records the peer sent in this direction).
    uint32_t next_expected = 0;
    std::deque<Bytes> ready;            // in-order, undelivered payloads
    std::map<uint32_t, Bytes> reorder;  // parked out-of-order payloads
  };

  static int Index(Direction dir) {
    return dir == Direction::kClientToServer ? 0 : 1;
  }
  static Direction Opposite(Direction dir) {
    return dir == Direction::kClientToServer ? Direction::kServerToClient
                                             : Direction::kClientToServer;
  }

  /// Frames and sends one record through the inner channel, reattributing
  /// transport overhead (or, for retransmits, the whole record) to
  /// Phase::kTransport on the attached observer.
  void SendRecord(Direction dir, uint32_t seq, ByteSpan payload,
                  bool retransmit);

  /// Drains every raw record pending in `dir`: CRC-verify, process acks,
  /// deduplicate, deliver in order, park out-of-order.
  void DrainRaw(Direction dir);

  void Deliver(Direction dir, Bytes payload);
  void PruneAcked(Direction dir, uint32_t ack);

  SimulatedChannel& inner_;
  ReliableParams params_;
  SimClock own_clock_;
  SimClock* clock_;
  TransportCounters counters_;
  DirState dirs_[2];
  std::vector<TranscriptEntry> transcript_;
  std::vector<TranscriptEntry> delivered_;
  bool record_transcript_ = false;
};

}  // namespace fsx::transport

#endif  // FSYNC_TRANSPORT_RELIABLE_H_
