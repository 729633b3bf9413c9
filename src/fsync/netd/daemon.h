// SyncDaemon: the real multi-client sync server. One nonblocking epoll
// event loop owns a TCP or Unix-domain listener and a table of
// Connections, each a per-client session state machine multiplexing many
// file-sync streams over one framed socket (see conn.h and protocol.h).
// Robustness is the point:
//
//   - bounded per-connection write queues with backpressure (a client
//     that stops reading stops being read),
//   - handshake/idle/session deadlines on the monotonic clock,
//   - a connection cap with oldest-idle eviction,
//   - graceful drain (finish in-flight sessions, refuse new ones,
//     bounded by a drain deadline) for SIGTERM handling,
//   - optional socket-level fault injection for the chaos suite.
//
// The server tree is an in-memory Collection (the daemon serves
// snapshots, it does not mutate them). Its manifest and the trie walk's
// server side are built once at construction (a TreeSnapshot); each
// connection runs the tree flow's server half over it, and file
// sessions run through CachedServerEndpoint, so a shared SyncCache turns
// an N-client fan-out into one computation of each signature, delta and
// bundled file.
#ifndef FSYNC_NETD_DAEMON_H_
#define FSYNC_NETD_DAEMON_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/collection.h"
#include "fsync/core/config.h"
#include "fsync/core/tree_session.h"
#include "fsync/netd/conn.h"
#include "fsync/netd/event_loop.h"
#include "fsync/netd/fault.h"
#include "fsync/netd/sockets.h"
#include "fsync/obs/sync_obs.h"

namespace fsx::netd {

struct DaemonOptions {
  /// TCP listener (used when unix_path is empty). port 0 = ephemeral.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Unix-domain listener path; non-empty selects it over TCP.
  std::string unix_path;

  SyncConfig config;
  size_t max_connections = 256;
  ConnLimits limits;
  uint64_t drain_deadline_us = 10'000'000;
  uint64_t cache_bytes = 64u << 20;     // shared server cache; 0 = off
  FaultPlan fault;                      // chaos: injected per connection
};

/// Aggregate daemon counters (snapshot; monotone while running).
struct DaemonStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_evicted = 0;
  uint64_t connections_drained = 0;
  uint64_t connections_failed = 0;   // protocol/reset/deadline closes
  uint64_t backpressure_stalls = 0;
  uint64_t deadline_expirations = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_completed = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t server_cpu_ns = 0;       // endpoint compute across sessions
  uint64_t loop_thread_cpu_ns = 0;  // whole loop thread (CPUTIME clock)
  uint64_t open_connections = 0;
};

class SyncDaemon {
 public:
  /// Copies `tree` (the daemon outlives any caller mutation).
  SyncDaemon(Collection tree, DaemonOptions options);
  ~SyncDaemon();

  SyncDaemon(const SyncDaemon&) = delete;
  SyncDaemon& operator=(const SyncDaemon&) = delete;

  /// Binds the listener, opens the epoll instance and starts the loop
  /// thread; an error when any of them fails. After Ok, port() has the
  /// bound port (TCP) and clients may connect.
  Status Start();

  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, let in-flight sessions finish
  /// (bounded by drain_deadline_us), then the loop exits. Idempotent,
  /// callable from any thread and from a signal handler's forwarder.
  void Drain();

  /// Immediate stop: the loop exits on its next wakeup, closing every
  /// connection regardless of state.
  void Stop();

  /// Waits for the loop thread to exit (after Drain/Stop, or on its
  /// own once a drain completes).
  void Join();

  DaemonStats stats() const;

  /// Mirrors daemon events into `obs` (kConnAccepted & co). Call before
  /// Start; read after Join (the loop thread writes it).
  void set_observer(obs::SyncObserver* obs) { obs_ = obs; }

 private:
  void Run();
  void AcceptAll(uint64_t now_us);
  void SyncInterest(Connection& conn);
  /// Adds one connection's counter delta to stats_ (stats_mu_ held).
  void FoldCountersLocked(const Connection::Counters& c);
  void CloseConnection(int fd, bool drained);
  uint64_t NowUs() const;

  Collection tree_;
  DaemonOptions options_;
  std::unique_ptr<cache::SyncCache> cache_;
  TreeSnapshot snapshot_;  // built once, shared by every connection
  ServerContext ctx_;

  Fd listener_;
  uint16_t port_ = 0;
  Fd wake_read_, wake_write_;
  Poller poller_;
  std::map<int, std::unique_ptr<Connection>> conns_;
  std::map<int, std::pair<bool, bool>> interest_;  // fd -> (read, write)
  uint64_t next_conn_id_ = 1;
  bool listener_open_ = false;

  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  bool draining_ = false;  // loop-thread view
  std::thread thread_;
  obs::SyncObserver* obs_ = nullptr;

  mutable std::mutex stats_mu_;
  DaemonStats stats_;
};

}  // namespace fsx::netd

#endif  // FSYNC_NETD_DAEMON_H_
