#include "fsync/netd/daemon.h"

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <sys/socket.h>
#include <unistd.h>

#include "fsync/core/config_io.h"

namespace fsx::netd {

SyncDaemon::SyncDaemon(Collection tree, DaemonOptions options)
    : tree_(std::move(tree)),
      options_(std::move(options)),
      cache_(options_.cache_bytes != 0
                 ? std::make_unique<cache::SyncCache>(options_.cache_bytes)
                 : nullptr),
      snapshot_(tree_, TreeSyncParams{.config = options_.config,
                                      .cache = cache_.get()}) {
  ctx_.snapshot = &snapshot_;
  ctx_.config = &options_.config;
  ctx_.config_digest = ConfigWireDigest(options_.config);
  ctx_.config_text = SerializeSyncConfig(options_.config);
  ctx_.cache = cache_.get();
}

SyncDaemon::~SyncDaemon() {
  Stop();
  Join();
  if (!options_.unix_path.empty() && listener_.valid()) {
    ::unlink(options_.unix_path.c_str());
  }
}

uint64_t SyncDaemon::NowUs() const {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

Status SyncDaemon::Start() {
  FSYNC_RETURN_IF_ERROR(ValidateSyncConfig(options_.config));
  if (!options_.unix_path.empty()) {
    FSYNC_ASSIGN_OR_RETURN(listener_, ListenUnix(options_.unix_path));
  } else {
    FSYNC_ASSIGN_OR_RETURN(listener_,
                           ListenTcp(options_.host, options_.port, &port_));
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal("pipe failed");
  }
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);
  FSYNC_RETURN_IF_ERROR(SetNonBlocking(wake_read_.get()));

  FSYNC_RETURN_IF_ERROR(poller_.Open());
  FSYNC_RETURN_IF_ERROR(poller_.Add(listener_.get(), true, false));
  listener_open_ = true;
  FSYNC_RETURN_IF_ERROR(poller_.Add(wake_read_.get(), true, false));

  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void SyncDaemon::Drain() {
  drain_.store(true);
  if (wake_write_.valid()) {
    const uint8_t one = 1;
    ssize_t rc = ::write(wake_write_.get(), &one, 1);
    (void)rc;
  }
}

void SyncDaemon::Stop() {
  stop_.store(true);
  if (wake_write_.valid()) {
    const uint8_t one = 1;
    ssize_t rc = ::write(wake_write_.get(), &one, 1);
    (void)rc;
  }
}

void SyncDaemon::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

DaemonStats SyncDaemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void SyncDaemon::SyncInterest(Connection& conn) {
  const std::pair<bool, bool> want{conn.want_read(), conn.want_write()};
  auto it = interest_.find(conn.fd());
  if (it != interest_.end() && it->second == want) {
    return;
  }
  (void)poller_.Update(conn.fd(), want.first, want.second);
  interest_[conn.fd()] = want;
}

void SyncDaemon::FoldCountersLocked(const Connection::Counters& c) {
  stats_.bytes_in += c.bytes_in;
  stats_.bytes_out += c.bytes_out;
  stats_.backpressure_stalls += c.backpressure_stalls;
  stats_.sessions_opened += c.sessions_opened;
  stats_.sessions_completed += c.sessions_completed;
  stats_.server_cpu_ns += c.server_cpu_ns;
  obs::AddEvent(obs_, obs::Event::kBackpressureStall,
                c.backpressure_stalls);
}

void SyncDaemon::CloseConnection(int fd, bool drained) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  Connection& conn = *it->second;
  poller_.Remove(fd);
  interest_.erase(fd);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    FoldCountersLocked(conn.TakeCounters());
    switch (conn.reason()) {
      case Connection::CloseReason::kDeadline:
        ++stats_.deadline_expirations;
        ++stats_.connections_failed;
        obs::AddEvent(obs_, obs::Event::kDeadlineExpired);
        break;
      case Connection::CloseReason::kEvicted:
        ++stats_.connections_evicted;
        obs::AddEvent(obs_, obs::Event::kConnEvicted);
        break;
      case Connection::CloseReason::kPeerGone:
      case Connection::CloseReason::kProtocol:
        ++stats_.connections_failed;
        break;
      default:
        break;
    }
    if (drained && conn.reason() == Connection::CloseReason::kClean) {
      ++stats_.connections_drained;
      obs::AddEvent(obs_, obs::Event::kConnDrained);
    }
    stats_.open_connections = conns_.size() - 1;
  }
  conns_.erase(it);  // closes the fd via Fd's dtor
}

void SyncDaemon::AcceptAll(uint64_t now_us) {
  for (;;) {
    int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or transient accept failure: try again later
    }
    Fd client(fd);
    if (!SetNonBlocking(client.get()).ok()) {
      continue;  // drop it
    }
    SetNoDelay(client.get());
    if (conns_.size() >= options_.max_connections) {
      // At the cap: evict the idle connection with the oldest activity
      // (never one mid-handshake bookkeeping-wise newer than it looks).
      // With no idle victim the newcomer is turned away instead —
      // in-flight sessions are worth more than a fresh hello.
      int victim = -1;
      uint64_t oldest = ~0ull;
      for (const auto& [cfd, conn] : conns_) {
        if (conn->has_streams()) {
          continue;
        }
        if (conn->last_activity_us() < oldest) {
          oldest = conn->last_activity_us();
          victim = cfd;
        }
      }
      if (victim < 0) {
        continue;  // reject: close the accepted fd
      }
      conns_[victim]->MarkEvicted();
      CloseConnection(victim, false);
    }
    const int cfd = client.get();
    auto conn = std::make_unique<Connection>(
        std::move(client), next_conn_id_++, &ctx_, options_.limits,
        options_.fault, now_us);
    if (!poller_.Add(cfd, true, false).ok()) {
      continue;  // conn dtor closes the fd
    }
    interest_[cfd] = {true, false};
    if (draining_) {
      conn->BeginDrain(now_us, options_.drain_deadline_us);
    }
    conns_.emplace(cfd, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_accepted;
      stats_.open_connections = conns_.size();
      obs::AddEvent(obs_, obs::Event::kConnAccepted);
    }
  }
}

void SyncDaemon::Run() {
  std::vector<Poller::Event> events;
  std::vector<int> doomed;
  for (;;) {
    if (stop_.load()) {
      break;
    }
    if (drain_.load() && !draining_) {
      draining_ = true;
      if (listener_open_) {
        poller_.Remove(listener_.get());
        listener_open_ = false;
        // Close the listening socket outright: an fd that stays open
        // keeps completing TCP handshakes into the backlog, so peers
        // would "connect" to a server that will never serve them.
        listener_.Close();
      }
      const uint64_t now = NowUs();
      for (auto& [fd, conn] : conns_) {
        conn->BeginDrain(now, options_.drain_deadline_us);
        SyncInterest(*conn);
      }
    }
    if (draining_ && conns_.empty()) {
      break;  // drain complete
    }

    // Fold live connection counters into the shared stats so callers
    // polling stats() see backpressure/session progress before the
    // connection closes.
    if (!conns_.empty()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (auto& [fd, conn] : conns_) {
        FoldCountersLocked(conn->TakeCounters());
      }
    }

    // Poll timeout: the earliest connection deadline, clamped to
    // [1, 200] ms.
    uint64_t now = NowUs();
    int timeout_ms = 200;
    for (const auto& [fd, conn] : conns_) {
      const uint64_t next = conn->NextDeadlineUs();
      if (next == ~0ull) {
        continue;
      }
      const uint64_t delta_ms = next > now ? (next - now) / 1000 : 0;
      timeout_ms = std::min<int>(
          timeout_ms, static_cast<int>(std::min<uint64_t>(delta_ms, 200)));
    }
    timeout_ms = std::max(timeout_ms, 1);
    if (!poller_.Wait(timeout_ms, &events).ok()) {
      break;
    }
    now = NowUs();

    doomed.clear();
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_read_.get()) {
        uint8_t buf[64];
        while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (ev.fd == listener_.get()) {
        AcceptAll(now);
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) {
        continue;
      }
      Connection& conn = *it->second;
      bool alive = true;
      if (ev.hangup && !ev.readable) {
        // Peer is gone and nothing is left to read; writes would fail.
        conn.MarkPeerGone();
        alive = false;
      }
      if (alive && ev.writable) {
        alive = conn.OnWritable(now);
      }
      if (alive && ev.readable) {
        alive = conn.OnReadable(now);
        // Whatever the handlers queued should go out eagerly; most
        // replies fit the socket buffer and never need POLLOUT.
        if (alive && conn.want_write()) {
          alive = conn.OnWritable(now);
        }
      }
      if (!alive || conn.finished()) {
        doomed.push_back(ev.fd);
      }
    }
    for (int fd : doomed) {
      CloseConnection(fd, draining_);
    }

    // Deadlines and interest sync over every live connection.
    doomed.clear();
    for (auto& [fd, conn] : conns_) {
      if (!conn->CheckDeadlines(now)) {
        doomed.push_back(fd);
        continue;
      }
      if (conn->finished()) {
        doomed.push_back(fd);
        continue;
      }
      SyncInterest(*conn);
    }
    for (int fd : doomed) {
      CloseConnection(fd, draining_);
    }

    // Loop-thread CPU, for the bench's server-cost-per-client curve.
    timespec cpu{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu) == 0) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.loop_thread_cpu_ns =
          static_cast<uint64_t>(cpu.tv_sec) * 1000000000ull +
          static_cast<uint64_t>(cpu.tv_nsec);
    }
  }

  // Loop exit: tear down whatever is left (Stop, or drain deadline hit
  // with stragglers).
  std::vector<int> rest;
  for (const auto& [fd, conn] : conns_) {
    rest.push_back(fd);
  }
  for (int fd : rest) {
    CloseConnection(fd, draining_);
  }
}

}  // namespace fsx::netd
