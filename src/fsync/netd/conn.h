// One daemon connection: a nonblocking fd plus the session state machine
// driving it. The connection owns a FrameReader for incoming bytes, a
// bounded write queue for outgoing frames, the tree flow's server half
// (a TreeSyncServer over the daemon's snapshot), a table of in-flight
// file streams (each one a CachedServerEndpoint), and the robustness
// machinery: handshake/idle/session deadlines, write-queue backpressure
// (stop reading a client whose output is backed up), and the drain
// protocol.
//
// The event loop calls OnReadable/OnWritable/CheckDeadlines; each
// returns false when the connection must be torn down. All methods run
// on the daemon's loop thread — no locking anywhere in here.
#ifndef FSYNC_NETD_CONN_H_
#define FSYNC_NETD_CONN_H_

#include <map>
#include <memory>
#include <string>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/config.h"
#include "fsync/core/server_cache.h"
#include "fsync/core/tree_session.h"
#include "fsync/netd/fault.h"
#include "fsync/netd/frame.h"
#include "fsync/netd/protocol.h"
#include "fsync/netd/sockets.h"

namespace fsx::netd {

/// Server-side state shared by every connection (owned by the daemon,
/// immutable while the loop runs).
struct ServerContext {
  const TreeSnapshot* snapshot = nullptr;  // the tree, manifest, walk side
  const SyncConfig* config = nullptr;
  uint64_t config_digest = 0;
  std::string config_text;   // SerializeSyncConfig(*config)
  cache::SyncCache* cache = nullptr;  // may be null
};

/// Per-connection robustness knobs (subset of DaemonOptions).
struct ConnLimits {
  size_t write_queue_high_bytes = 4u << 20;
  size_t write_queue_low_bytes = 1u << 20;
  uint64_t handshake_deadline_us = 10'000'000;
  uint64_t idle_deadline_us = 120'000'000;
  uint64_t session_deadline_us = 600'000'000;
};

class Connection {
 public:
  /// Why a connection ended (for stats and the drain accounting).
  enum class CloseReason {
    kNone,        // still open
    kClean,       // goodbye handshake or orderly EOF with no streams
    kPeerGone,    // EOF/reset mid-session
    kProtocol,    // framing/protocol violation (stream unusable)
    kDeadline,    // a deadline expired
    kEvicted,     // closed to make room at the connection cap
  };

  Connection(Fd fd, uint64_t id, const ServerContext* ctx,
             const ConnLimits& limits, const FaultPlan& fault_plan,
             uint64_t now_us);

  int fd() const { return fd_.get(); }
  uint64_t id() const { return id_; }

  /// Reads and processes whatever the socket allows. Returns false when
  /// the connection must be closed (reason() says why).
  bool OnReadable(uint64_t now_us);

  /// Flushes the write queue as far as the socket allows.
  bool OnWritable(uint64_t now_us);

  /// Enforces handshake/idle/session (and drain) deadlines. Returns
  /// false on expiry.
  bool CheckDeadlines(uint64_t now_us);

  /// Starts draining: announces kDraining, refuses new streams, and
  /// arms the drain deadline. In-flight streams run to completion.
  void BeginDrain(uint64_t now_us, uint64_t drain_deadline_us);

  /// Marks the connection evicted (the daemon closes it right after).
  void MarkEvicted() { reason_ = CloseReason::kEvicted; }
  /// Marks the peer as gone (hangup event with nothing left to read).
  void MarkPeerGone() {
    reason_ = (streams_.empty() && state_ == State::kActive)
                  ? CloseReason::kClean
                  : CloseReason::kPeerGone;
  }

  // Interest set for the poller, derived from queue state and
  // backpressure. The daemon syncs these after every handler call.
  bool want_read() const;
  bool want_write() const { return !write_queue_.empty(); }

  /// True once the goodbye/drain flush finished: queue empty and the
  /// state machine has nothing more to say. The daemon then closes.
  bool finished() const {
    return state_ == State::kClosing && write_queue_.empty();
  }

  bool has_streams() const { return !streams_.empty(); }
  bool handshaken() const { return state_ != State::kHandshake; }
  uint64_t last_activity_us() const { return last_activity_us_; }
  CloseReason reason() const { return reason_; }

  /// Earliest pending deadline (poll-timeout hint; ~0ull = none).
  uint64_t NextDeadlineUs() const;

  /// Counters the daemon folds into its stats when the connection dies.
  struct Counters {
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t backpressure_stalls = 0;
    uint64_t sessions_opened = 0;
    uint64_t sessions_completed = 0;
    uint64_t server_cpu_ns = 0;
  };
  const Counters& counters() const { return counters_; }
  /// Returns the accumulated counters and resets them, so the daemon
  /// can fold live connections into its stats incrementally (a stalled
  /// client must show up in backpressure_stalls before it disconnects).
  Counters TakeCounters() {
    Counters c = counters_;
    counters_ = Counters{};
    return c;
  }

 private:
  enum class State { kHandshake, kActive, kClosing };

  struct Stream {
    std::unique_ptr<CachedServerEndpoint> server;
  };

  /// Processes one decoded record; false = fatal for the connection.
  bool HandleRecord(const transport::Record& rec, uint64_t now_us);
  bool HandleMsg(const DaemonMsg& msg, uint64_t now_us);
  bool HandleOpenFile(uint64_t stream, ByteSpan body);
  bool HandleFileMsg(uint64_t stream, ByteSpan body);
  void CloseStream(uint64_t stream);

  /// Encodes and queues one outgoing daemon message.
  void SendMsg(Msg msg, uint64_t stream, ByteSpan body);
  void SendError(uint64_t stream, const Status& status);
  void FailConnection(CloseReason reason);

  Fd fd_;
  const uint64_t id_;
  const ServerContext* ctx_;
  const ConnLimits limits_;
  std::unique_ptr<FaultInjector> fault_;  // null when no faults
  SocketIo io_;

  State state_ = State::kHandshake;
  CloseReason reason_ = CloseReason::kNone;
  bool draining_ = false;
  bool stalled_ = false;  // currently paused by backpressure
  FrameReader reader_;
  std::deque<Bytes> write_queue_;  // encoded frames
  size_t write_queue_bytes_ = 0;
  size_t write_offset_ = 0;  // into write_queue_.front()
  uint32_t next_seq_ = 0;
  TreeSyncServer tree_;
  std::map<uint64_t, Stream> streams_;

  const uint64_t created_us_;
  uint64_t last_activity_us_;
  uint64_t drain_deadline_abs_us_ = 0;  // 0 = not draining
  Counters counters_;
};

}  // namespace fsx::netd

#endif  // FSYNC_NETD_CONN_H_
