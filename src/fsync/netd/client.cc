#include "fsync/netd/client.h"

#include <chrono>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <thread>

#include "fsync/core/checkpoint.h"
#include "fsync/core/config_io.h"
#include "fsync/core/file_session.h"
#include "fsync/core/tree_session.h"
#include "fsync/hash/md5.h"
#include "fsync/netd/frame.h"
#include "fsync/netd/protocol.h"
#include "fsync/netd/sockets.h"
#include "fsync/store/fsstore.h"
#include "fsync/store/journal.h"
#include "fsync/util/hex.h"

namespace fsx::netd {

namespace {

uint64_t NowMs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000;
}

/// Blocking framed transport over the client's fd.
class ClientConn {
 public:
  ClientConn(Fd fd, FaultInjector* fault, int io_timeout_ms)
      : fd_(std::move(fd)),
        io_{fd_.get(), fault},
        fault_(fault),
        timeout_ms_(io_timeout_ms) {}

  Status SendMsg(Msg msg, uint64_t stream, ByteSpan body) {
    Bytes payload = EncodeDaemonMsg(msg, stream, body);
    Bytes frame = EncodeFrame(transport::kRecordTypeDaemon, next_seq_++, 0,
                              ByteSpan(payload.data(), payload.size()));
    if (fault_ != nullptr) {
      fault_->MaybeTear(frame.data(), frame.size());
    }
    size_t off = 0;
    while (off < frame.size()) {
      bool would_block = false;
      long n = io_.Write(frame.data() + off, frame.size() - off,
                         &would_block);
      if (n >= 0) {
        off += static_cast<size_t>(n);
        bytes_sent_ += static_cast<uint64_t>(n);
        continue;
      }
      if (!would_block) {
        return Status::Unavailable("client: write failed (server gone?)");
      }
      pollfd p{fd_.get(), POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&p, 1, timeout_ms_);
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) {
        return Status::Unavailable("client: write stalled past deadline");
      }
    }
    return Status::Ok();
  }

  StatusOr<DaemonMsg> RecvMsg() {
    const uint64_t deadline = NowMs() + static_cast<uint64_t>(timeout_ms_);
    uint8_t buf[64 * 1024];
    for (;;) {
      auto rec = reader_.Next();
      if (rec.ok()) {
        if (rec->type != transport::kRecordTypeDaemon) {
          return Status::DataLoss("client: unexpected record type");
        }
        return ParseDaemonMsg(
            ByteSpan(rec->payload.data(), rec->payload.size()));
      }
      if (rec.status().code() != StatusCode::kNotFound) {
        return rec.status();  // poisoned stream (torn frame, bad CRC)
      }
      const uint64_t now = NowMs();
      if (now >= deadline) {
        return Status::Unavailable("client: receive timed out");
      }
      pollfd p{fd_.get(), POLLIN, 0};
      int rc;
      do {
        rc = ::poll(&p, 1, static_cast<int>(deadline - now));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        return Status::Unavailable("client: receive timed out");
      }
      if (rc < 0) {
        return Status::Internal("client: poll failed");
      }
      bool would_block = false;
      long n = io_.Read(buf, sizeof(buf), &would_block);
      if (n > 0) {
        bytes_received_ += static_cast<uint64_t>(n);
        reader_.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        return Status::Unavailable("client: server closed the connection");
      }
      if (!would_block) {
        return Status::Unavailable("client: read failed (server reset?)");
      }
    }
  }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  Fd fd_;
  SocketIo io_;
  FaultInjector* fault_;
  int timeout_ms_;
  FrameReader reader_;
  uint32_t next_seq_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// One in-flight per-file session (client side).
struct FileSession {
  std::string path;
  std::unique_ptr<ClientFileSession> session;
  std::string ckpt_path;  // "" = checkpoints disabled
};

std::string CheckpointPathFor(const std::string& dir,
                              const std::string& path) {
  if (dir.empty()) {
    return "";
  }
  const Md5Digest digest = Md5::Hash(
      ByteSpan(reinterpret_cast<const uint8_t*>(path.data()), path.size()));
  return dir + "/" + HexEncode(ByteSpan(digest.data(), digest.size())) +
         ".ckpt";
}

void SaveCheckpoint(const std::string& ckpt_path, const SessionCheckpoint& cp,
                    ClientResult& result) {
  if (result.checkpoints_disabled) {
    return;
  }
  // Best effort (a failed save only costs resume coverage), but disk
  // faults degrade deliberately: a transient EIO / failed fsync gets one
  // retry after a short backoff; a persistent failure — or disk-full,
  // which a retry cannot fix — disables checkpointing for the rest of
  // the run instead of hammering a dead disk once per round.
  Status st = SaveCheckpointFile(ckpt_path, cp);
  if (st.ok()) {
    return;
  }
  if (st.code() == StatusCode::kUnavailable ||
      st.code() == StatusCode::kDataLoss) {
    ++result.disk_retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    st = SaveCheckpointFile(ckpt_path, cp);
    if (st.ok()) {
      return;
    }
  }
  result.checkpoints_disabled = true;
}

}  // namespace

StatusOr<ClientResult> RunSyncClient(const Collection& local,
                                     const ClientOptions& options) {
  // Connect.
  StatusOr<Fd> fd = options.unix_path.empty()
                        ? ConnectTcp(options.host, options.port)
                        : ConnectUnix(options.unix_path);
  FSYNC_RETURN_IF_ERROR(fd.status());
  std::unique_ptr<FaultInjector> fault;
  if (options.fault.any()) {
    fault = std::make_unique<FaultInjector>(options.fault);
  }
  ClientConn conn(std::move(*fd), fault.get(), options.io_timeout_ms);

  ClientResult result;

  // Handshake: hello, then adopt the server's config (verifying the
  // announced wire digest actually matches the parsed text).
  {
    Bytes hello = EncodeHello();
    FSYNC_RETURN_IF_ERROR(
        conn.SendMsg(Msg::kHello, 0, ByteSpan(hello.data(), hello.size())));
    FSYNC_ASSIGN_OR_RETURN(DaemonMsg msg, conn.RecvMsg());
    if (msg.msg != Msg::kHelloAck || msg.stream != 0) {
      return Status::DataLoss("client: expected hello ack");
    }
    FSYNC_ASSIGN_OR_RETURN(
        HelloAck ack, ParseHelloAck(ByteSpan(msg.body.data(),
                                             msg.body.size())));
    if (!ack.accepted) {
      return Status::Unavailable("client: server refused protocol version " +
                                 std::to_string(kDaemonVersion));
    }
    FSYNC_ASSIGN_OR_RETURN(result.config, ParseSyncConfig(ack.config_text));
    if (ConfigWireDigest(result.config) != ack.config_digest) {
      return Status::DataLoss(
          "client: negotiated config digest mismatch (corrupt handshake?)");
    }
  }
  const SyncConfig& config = result.config;

  // The tree flow on stream 0: the walk, then the plan and its bundle.
  auto recv_tree_msg = [&](Msg kind) -> StatusOr<Bytes> {
    FSYNC_ASSIGN_OR_RETURN(DaemonMsg msg, conn.RecvMsg());
    if (msg.msg == Msg::kDraining) {
      return Status::Unavailable("client: server is draining");
    }
    if (msg.msg != kind || msg.stream != 0) {
      return Status::DataLoss("client: expected a tree-flow reply");
    }
    return std::move(msg.body);
  };
  TreeSyncClient tree(local, TreeSyncParams{.config = config});
  std::optional<Bytes> ask = tree.Start();
  while (ask.has_value()) {
    FSYNC_RETURN_IF_ERROR(
        conn.SendMsg(Msg::kWalk, 0, ByteSpan(ask->data(), ask->size())));
    FSYNC_ASSIGN_OR_RETURN(Bytes reply, recv_tree_msg(Msg::kWalk));
    FSYNC_ASSIGN_OR_RETURN(ask, tree.OnWalkReply(reply));
  }
  // Security boundary: wire paths become filesystem paths downstream;
  // refuse the whole sync if the server names anything the apply would
  // refuse: a path outside the tree, or one of the store's own files (a
  // served `*.fsx-journal` would be read as an undo journal by the next
  // recovery).
  for (const auto& [path, entry] : tree.diff().stale_entries) {
    if (!IsSafeRelativePath(path) || store::IsInternalArtifact(path)) {
      return Status::InvalidArgument("client: unsafe path from the server: " +
                                     path);
    }
  }
  if (std::optional<Bytes> plan = tree.Plan()) {
    FSYNC_RETURN_IF_ERROR(
        conn.SendMsg(Msg::kPlan, 0, ByteSpan(plan->data(), plan->size())));
    if (tree.awaits_bundle()) {
      FSYNC_ASSIGN_OR_RETURN(Bytes bundle, recv_tree_msg(Msg::kPlan));
      FSYNC_RETURN_IF_ERROR(tree.OnBundle(bundle));
    }
  }
  TreeSyncResult& tree_result = tree.result();
  result.reconstructed = std::move(tree_result.reconstructed);
  result.files_total = tree_result.files_total;
  result.files_unchanged = tree_result.files_unchanged;
  result.files_new = tree_result.files_new;
  result.files_adopted = tree_result.files_adopted;
  result.files_small = tree_result.files_small;
  result.files_deleted = tree.diff().extra.size();
  std::deque<std::string> pending(tree.large().begin(), tree.large().end());

  // Multiplexed sessions: each stream carries one ClientFileSession's
  // messages, each client message tagged with its SessionMsg kind.
  std::map<uint64_t, FileSession> sessions;
  uint64_t next_stream = 1;
  bool draining = false;

  auto open_next = [&]() -> Status {
    while (!draining && !pending.empty() &&
           sessions.size() < static_cast<size_t>(options.max_streams)) {
      FileSession s;
      s.path = std::move(pending.front());
      pending.pop_front();
      // The local manifest holds the fingerprint of every local file, so
      // no session hashes its old file again.
      auto it = local.find(s.path);
      auto hint = tree.manifest().find(s.path);
      s.session = std::make_unique<ClientFileSession>(
          it != local.end() ? ByteSpan(it->second) : ByteSpan(), config,
          hint != tree.manifest().end() ? &hint->second.fingerprint
                                        : nullptr);
      s.ckpt_path = CheckpointPathFor(options.checkpoint_dir, s.path);
      std::optional<SessionCheckpoint> cp;
      if (!s.ckpt_path.empty()) {
        s.session->set_checkpoint_fn(
            [&result, ckpt_path = s.ckpt_path](const SessionCheckpoint& c) {
              SaveCheckpoint(ckpt_path, c, result);
            });
        if (auto loaded = LoadCheckpointFile(s.ckpt_path); loaded.ok()) {
          cp = std::move(*loaded);
        }
      }
      SessionSend first = s.session->Start(cp.has_value() ? &*cp : nullptr);
      OpenFile open;
      open.kind = first.kind;
      open.path = s.path;
      open.first_msg = std::move(first.bytes);
      const uint64_t stream = next_stream++;
      Bytes body = EncodeOpenFile(open);
      FSYNC_RETURN_IF_ERROR(conn.SendMsg(Msg::kOpenFile, stream,
                                         ByteSpan(body.data(), body.size())));
      ++result.files_sessioned;
      sessions.emplace(stream, std::move(s));
    }
    return Status::Ok();
  };

  auto finish_file = [&](uint64_t stream) -> Status {
    FileSession& s = sessions.at(stream);
    const SyncClientEndpoint& ep = s.session->endpoint();
    if (!ep.done()) {
      return Status::Internal("client: session ended without completion");
    }
    result.reconstructed[s.path] = ep.result();
    if (s.session->resumed()) {
      ++result.files_resumed;
    }
    if (s.session->degradation_level() > 0) {
      ++result.files_degraded;
    }
    if (!s.ckpt_path.empty()) {
      Status st = RemoveCheckpointFile(s.ckpt_path);
      (void)st;
    }
    FSYNC_RETURN_IF_ERROR(conn.SendMsg(Msg::kCloseStream, stream, ByteSpan()));
    sessions.erase(stream);
    return open_next();
  };

  FSYNC_RETURN_IF_ERROR(open_next());

  while (!sessions.empty()) {
    FSYNC_ASSIGN_OR_RETURN(DaemonMsg msg, conn.RecvMsg());
    if (msg.stream == 0) {
      if (msg.msg == Msg::kDraining) {
        draining = true;
        result.server_draining = true;
        continue;
      }
      if (msg.msg == Msg::kError) {
        auto err = ParseError(ByteSpan(msg.body.data(), msg.body.size()));
        return Status::Unavailable(
            "client: server error: " +
            (err.ok() ? err->detail : std::string("unparseable")));
      }
      return Status::DataLoss("client: unexpected control message");
    }
    auto sit = sessions.find(msg.stream);
    if (sit == sessions.end()) {
      continue;  // late message for a closed stream; harmless
    }
    if (msg.msg == Msg::kError) {
      // Stream-scoped failure (draining refusal, server-side error):
      // abort this file, keep the rest of the sync alive.
      ++result.files_aborted;
      sessions.erase(sit);
      FSYNC_RETURN_IF_ERROR(open_next());
      continue;
    }
    if (msg.msg != Msg::kFileMsg) {
      return Status::DataLoss("client: unexpected message on file stream");
    }
    FSYNC_ASSIGN_OR_RETURN(
        std::optional<SessionSend> next,
        sit->second.session->OnServerMessage(
            ByteSpan(msg.body.data(), msg.body.size())));
    if (!next.has_value()) {
      FSYNC_RETURN_IF_ERROR(finish_file(msg.stream));
      continue;
    }
    Bytes out = EncodeFileMsg(next->kind, ByteSpan(next->bytes.data(),
                                                   next->bytes.size()));
    FSYNC_RETURN_IF_ERROR(conn.SendMsg(Msg::kFileMsg, msg.stream,
                                       ByteSpan(out.data(), out.size())));
  }

  result.files_aborted += pending.size();
  Status bye = conn.SendMsg(Msg::kGoodbye, 0, ByteSpan());
  (void)bye;  // the sync succeeded; a lost goodbye costs nothing

  result.physical_bytes_sent = conn.bytes_sent();
  result.physical_bytes_received = conn.bytes_received();
  return result;
}

}  // namespace fsx::netd
