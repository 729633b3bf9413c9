// Simulated communication substrate. The paper evaluates protocols by bytes
// sent in each direction and by roundtrip count; SimulatedChannel carries
// framed messages between an in-process client and server while recording
// exactly those quantities. LinkModel converts the traffic into transfer
// time for a configurable (possibly asymmetric) link.
#ifndef FSYNC_NET_CHANNEL_H_
#define FSYNC_NET_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "fsync/obs/sync_obs.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Traffic accounting for one synchronization session.
struct TrafficStats {
  uint64_t client_to_server_bytes = 0;
  uint64_t server_to_client_bytes = 0;
  uint64_t roundtrips = 0;  // direction reversals / 2, see Channel

  uint64_t total_bytes() const {
    return client_to_server_bytes + server_to_client_bytes;
  }
};

/// The traffic a channel carried between two of its stats() snapshots,
/// so one protocol run reports its own share of a shared channel.
inline TrafficStats TrafficSince(const TrafficStats& before,
                                 const TrafficStats& after) {
  return {after.client_to_server_bytes - before.client_to_server_bytes,
          after.server_to_client_bytes - before.server_to_client_bytes,
          after.roundtrips - before.roundtrips};
}

/// Wire cost of one channel message carrying `payload_size` bytes: the
/// payload plus its varint length-prefix framing. Exposed so transport
/// decorators can account their per-record overhead exactly (the reliable
/// layer reattributes `its wire cost - MessageWireBytes(logical size)` to
/// the transport phase).
uint64_t MessageWireBytes(uint64_t payload_size);

/// In-process duplex message channel with byte and roundtrip accounting.
///
/// Protocol code runs client and server as coroutine-style steps in one
/// process: one party Sends, the other Receives. Messages are queued per
/// direction. A roundtrip is counted each time the flow switches from
/// client->server back to client (i.e. one full request/response cycle).
///
/// The entry points are virtual so a transport layer can decorate a
/// channel (fsync/transport/reliable.h wraps a lossy channel and presents
/// the same interface); protocol code is written against this class and
/// never needs to know which concrete channel it runs over.
class SimulatedChannel {
 public:
  enum class Direction { kClientToServer, kServerToClient };

  virtual ~SimulatedChannel() = default;

  /// Enqueues a message. Adds framing cost (varint length prefix) to the
  /// byte accounting so protocols cannot hide message boundaries for free.
  virtual void Send(Direction dir, ByteSpan payload);

  /// Dequeues the oldest message in `dir`. Fails if none is pending.
  virtual StatusOr<Bytes> Receive(Direction dir);

  /// True if a message is waiting in `dir`.
  virtual bool HasPending(Direction dir) const;

  virtual const TrafficStats& stats() const { return stats_; }

  /// Resets traffic counters (queues must be empty).
  virtual void ResetStats();

  /// Attaches (or detaches, with nullptr) a sync observer. Every Send
  /// reports its exact wire cost — payload plus framing, the same number
  /// just added to stats() — to the observer under the phase the protocol
  /// most recently declared, so per-phase sums equal TrafficStats by
  /// construction. Observation never alters payloads, accounting, or
  /// fault handling; with no observer the cost is one branch per Send.
  virtual void SetObserver(obs::SyncObserver* observer) {
    observer_ = observer;
  }
  virtual obs::SyncObserver* observer() const { return observer_; }

  /// Test hook: every queued message passes through `tamper` before
  /// delivery (fault injection for robustness tests). The byte accounting
  /// reflects the original payload, not the tampered one: the sender paid
  /// for what it sent, regardless of what the network did to it.
  virtual void SetTamper(std::function<void(Direction, Bytes&)> tamper) {
    tamper_ = std::move(tamper);
  }

  /// Queue-level fault decision, consulted once per Send.
  enum class FaultAction {
    kDeliver,    // enqueue normally
    kDrop,       // lose the message (never enqueued)
    kDuplicate,  // enqueue two copies
    kReorder,    // enqueue at the front, jumping past pending messages
  };

  /// Test hook: decides the fate of each sent message (drop, duplication,
  /// reordering). Like SetTamper, byte and roundtrip accounting always
  /// reflect the original send; faults change delivery, not cost.
  virtual void SetFault(std::function<FaultAction(Direction, ByteSpan)> fault) {
    fault_ = std::move(fault);
  }

  /// One message as originally sent (before tamper/fault processing).
  struct TranscriptEntry {
    Direction dir;
    Bytes payload;
  };

  /// Test hook: when enabled, every Send appends its direction and exact
  /// payload to an in-order transcript. The threaded conformance suite
  /// compares transcripts across `num_threads` settings to pin the
  /// determinism contract (parallelism may never change wire traffic).
  virtual void EnableTranscript() { record_transcript_ = true; }
  virtual const std::vector<TranscriptEntry>& transcript() const {
    return transcript_;
  }

 private:
  obs::SyncObserver* observer_ = nullptr;
  std::function<void(Direction, Bytes&)> tamper_;
  std::function<FaultAction(Direction, ByteSpan)> fault_;
  std::deque<Bytes> to_server_;
  std::deque<Bytes> to_client_;
  std::vector<TranscriptEntry> transcript_;
  bool record_transcript_ = false;
  TrafficStats stats_;
  Direction last_dir_ = Direction::kServerToClient;
};

/// RAII scope tying an observer to one protocol run over a channel:
/// attaches the observer (when non-null), names the protocol for trace
/// events, and on destruction records the session wall-clock span and
/// detaches. Null observer = no-op, so protocol entry points can open
/// the scope unconditionally:
///
///   StatusOr<R> FooSynchronize(..., SimulatedChannel& ch,
///                              obs::SyncObserver* obs) {
///     ObservedSession scope(ch, obs, "foo");
///     ...
///   }
class ObservedSession {
 public:
  ObservedSession(SimulatedChannel& channel, obs::SyncObserver* observer,
                  const char* protocol)
      : channel_(channel), observer_(observer) {
    if (observer_ != nullptr) {
      previous_ = channel_.observer();
      observer_->set_protocol(protocol);
      channel_.SetObserver(observer_);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ObservedSession() {
    if (observer_ != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - start_;
      observer_->RecordSession(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
      channel_.SetObserver(previous_);
    }
  }
  ObservedSession(const ObservedSession&) = delete;
  ObservedSession& operator=(const ObservedSession&) = delete;

 private:
  SimulatedChannel& channel_;
  obs::SyncObserver* observer_;
  obs::SyncObserver* previous_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Link cost model: seconds to complete a session's traffic over a link
/// with the given bandwidths and per-roundtrip latency.
struct LinkModel {
  double downstream_bytes_per_sec = 128 * 1024;  // server -> client
  double upstream_bytes_per_sec = 128 * 1024;    // client -> server
  double roundtrip_latency_sec = 0.1;

  /// Transfer time for `stats`, assuming directions do not overlap (the
  /// conservative model for a request/response protocol).
  double TransferSeconds(const TrafficStats& stats) const {
    return static_cast<double>(stats.server_to_client_bytes) /
               downstream_bytes_per_sec +
           static_cast<double>(stats.client_to_server_bytes) /
               upstream_bytes_per_sec +
           static_cast<double>(stats.roundtrips) * roundtrip_latency_sec;
  }
};

}  // namespace fsx

#endif  // FSYNC_NET_CHANNEL_H_
