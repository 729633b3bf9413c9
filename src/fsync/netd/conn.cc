#include "fsync/netd/conn.h"

#include <algorithm>

namespace fsx::netd {

namespace {

/// Read chunk per loop pass.
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

Connection::Connection(Fd fd, uint64_t id, const ServerContext* ctx,
                       const ConnLimits& limits, const FaultPlan& fault_plan,
                       uint64_t now_us)
    : fd_(std::move(fd)),
      id_(id),
      ctx_(ctx),
      limits_(limits),
      tree_(*ctx->snapshot),
      created_us_(now_us),
      last_activity_us_(now_us) {
  if (fault_plan.any()) {
    // Derive a per-connection stream so concurrent connections see
    // different (but reproducible) fault sequences.
    FaultPlan derived = fault_plan;
    derived.seed = fault_plan.seed * 0x9E3779B97F4A7C15ull + id;
    fault_ = std::make_unique<FaultInjector>(derived);
  }
  io_ = SocketIo{fd_.get(), fault_.get()};
}

bool Connection::want_read() const {
  if (state_ == State::kClosing) {
    return false;
  }
  // Backpressure: a client whose responses are backed up past the high
  // watermark is not read until the queue falls below the low one.
  return write_queue_bytes_ < (stalled_ ? limits_.write_queue_low_bytes
                                        : limits_.write_queue_high_bytes);
}

bool Connection::OnReadable(uint64_t now_us) {
  if (state_ == State::kClosing) {
    return true;
  }
  uint8_t buf[kReadChunk];
  for (;;) {
    if (!want_read()) {
      return true;  // paused; level-triggered poll re-delivers later
    }
    stalled_ = false;
    bool would_block = false;
    long n = io_.Read(buf, sizeof(buf), &would_block);
    if (n < 0) {
      if (would_block) {
        return true;
      }
      FailConnection(CloseReason::kPeerGone);
      return false;
    }
    if (n == 0) {
      // Orderly EOF. Clean only if the client had nothing in flight.
      reason_ = (streams_.empty() && state_ != State::kHandshake)
                    ? CloseReason::kClean
                    : CloseReason::kPeerGone;
      return false;
    }
    counters_.bytes_in += static_cast<uint64_t>(n);
    last_activity_us_ = now_us;
    reader_.Feed(buf, static_cast<size_t>(n));
    for (;;) {
      auto rec = reader_.Next();
      if (!rec.ok()) {
        if (rec.status().code() == StatusCode::kNotFound) {
          break;  // need more bytes
        }
        // Torn frame / CRC failure / oversized frame: the stream can no
        // longer be trusted; drop the connection (the client's own CRC
        // checks protect it symmetrically).
        FailConnection(CloseReason::kProtocol);
        return false;
      }
      if (!HandleRecord(*rec, now_us)) {
        return false;
      }
    }
  }
}

bool Connection::HandleRecord(const transport::Record& rec, uint64_t now_us) {
  if (rec.type != transport::kRecordTypeDaemon) {
    FailConnection(CloseReason::kProtocol);
    return false;
  }
  auto msg = ParseDaemonMsg(ByteSpan(rec.payload.data(), rec.payload.size()));
  if (!msg.ok()) {
    FailConnection(CloseReason::kProtocol);
    return false;
  }
  return HandleMsg(*msg, now_us);
}

bool Connection::HandleMsg(const DaemonMsg& msg, uint64_t now_us) {
  (void)now_us;
  const ByteSpan body(msg.body.data(), msg.body.size());
  if (state_ == State::kHandshake) {
    if (msg.msg != Msg::kHello) {
      FailConnection(CloseReason::kProtocol);
      return false;
    }
    uint8_t version = 0;
    if (!ParseHello(body, &version).ok()) {
      FailConnection(CloseReason::kProtocol);
      return false;
    }
    HelloAck ack;
    ack.accepted = version == kDaemonVersion;
    ack.version = kDaemonVersion;
    ack.config_digest = ctx_->config_digest;
    ack.config_text = ctx_->config_text;
    Bytes ack_body = EncodeHelloAck(ack);
    SendMsg(Msg::kHelloAck, 0, ByteSpan(ack_body.data(), ack_body.size()));
    if (!ack.accepted) {
      state_ = State::kClosing;
      reason_ = CloseReason::kClean;
      return true;  // flush the refusal, then close
    }
    state_ = State::kActive;
    if (draining_) {
      SendMsg(Msg::kDraining, 0, ByteSpan());
    }
    return true;
  }

  switch (msg.msg) {
    case Msg::kWalk:
    case Msg::kPlan: {
      // A tree message the server half refuses (outside the walk it
      // offered, a second or unordered plan) or one off stream 0 means a
      // broken or hostile client: the connection cannot continue.
      StatusOr<Bytes> reply =
          msg.msg == Msg::kWalk ? tree_.OnWalk(body) : tree_.OnPlan(body);
      if (msg.stream != 0 || !reply.ok()) {
        FailConnection(CloseReason::kProtocol);
        return false;
      }
      if (!reply->empty()) {
        SendMsg(msg.msg, 0, ByteSpan(reply->data(), reply->size()));
      }
      return true;
    }
    case Msg::kOpenFile:
      return HandleOpenFile(msg.stream, body);
    case Msg::kFileMsg:
      return HandleFileMsg(msg.stream, body);
    case Msg::kCloseStream:
      CloseStream(msg.stream);
      return true;
    case Msg::kGoodbye:
      state_ = State::kClosing;
      reason_ = CloseReason::kClean;
      return true;
    default:
      // kHello twice, or a server-only kind from a client.
      FailConnection(CloseReason::kProtocol);
      return false;
  }
}

bool Connection::HandleOpenFile(uint64_t stream, ByteSpan body) {
  if (stream == 0) {
    FailConnection(CloseReason::kProtocol);
    return false;
  }
  if (draining_) {
    SendError(stream, Status::Unavailable("daemon: draining"));
    return true;
  }
  auto open = ParseOpenFile(body);
  if (!open.ok()) {
    FailConnection(CloseReason::kProtocol);
    return false;
  }
  if (streams_.count(stream) != 0) {
    SendError(stream, Status::FailedPrecondition("stream id in use"));
    return true;
  }
  const Collection& tree = ctx_->snapshot->tree;
  auto file = tree.find(open->path);
  if (file == tree.end()) {
    SendError(stream, Status::NotFound("no such file: " + open->path));
    return true;
  }
  Stream s;
  s.server = std::make_unique<CachedServerEndpoint>(
      ByteSpan(file->second.data(), file->second.size()), *ctx_->config,
      ctx_->cache, nullptr,
      &ctx_->snapshot->manifest.at(open->path).fingerprint);
  StatusOr<Bytes> reply = s.server->Handle(
      open->kind, ByteSpan(open->first_msg.data(), open->first_msg.size()));
  if (!reply.ok()) {
    SendError(stream, reply.status());
    return true;
  }
  ++counters_.sessions_opened;
  streams_.emplace(stream, std::move(s));
  SendMsg(Msg::kFileMsg, stream, ByteSpan(reply->data(), reply->size()));
  return true;
}

bool Connection::HandleFileMsg(uint64_t stream, ByteSpan body) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    SendError(stream, Status::NotFound("no such stream"));
    return true;
  }
  auto parsed = ParseFileMsg(body);
  if (!parsed.ok()) {
    FailConnection(CloseReason::kProtocol);
    return false;
  }
  const auto& [kind, payload] = *parsed;
  StatusOr<Bytes> reply = it->second.server->Handle(
      kind, ByteSpan(payload.data(), payload.size()));
  if (!reply.ok()) {
    // A per-stream protocol error poisons only that stream: report it
    // and free the session; the connection and its other streams live.
    SendError(stream, reply.status());
    CloseStream(stream);
    return true;
  }
  SendMsg(Msg::kFileMsg, stream, ByteSpan(reply->data(), reply->size()));
  return true;
}

void Connection::CloseStream(uint64_t stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return;
  }
  counters_.server_cpu_ns += it->second.server->server_cpu_ns();
  if (it->second.server->done()) {
    ++counters_.sessions_completed;
  }
  streams_.erase(it);
}

void Connection::SendMsg(Msg msg, uint64_t stream, ByteSpan body) {
  Bytes payload = EncodeDaemonMsg(msg, stream, body);
  Bytes frame = EncodeFrame(transport::kRecordTypeDaemon, next_seq_++, 0,
                            ByteSpan(payload.data(), payload.size()));
  if (fault_ != nullptr) {
    fault_->MaybeTear(frame.data(), frame.size());
  }
  write_queue_bytes_ += frame.size();
  write_queue_.push_back(std::move(frame));
  // A stall episode starts the moment queued output crosses the high
  // watermark — whether or not the peer ever sends another byte for
  // OnReadable to notice.
  if (!stalled_ && write_queue_bytes_ >= limits_.write_queue_high_bytes) {
    stalled_ = true;
    ++counters_.backpressure_stalls;
  }
}

void Connection::SendError(uint64_t stream, const Status& status) {
  Bytes body = EncodeError(status);
  SendMsg(Msg::kError, stream, ByteSpan(body.data(), body.size()));
}

void Connection::FailConnection(CloseReason reason) {
  reason_ = reason;
  state_ = State::kClosing;
  write_queue_.clear();
  write_queue_bytes_ = 0;
  write_offset_ = 0;
}

bool Connection::OnWritable(uint64_t now_us) {
  while (!write_queue_.empty()) {
    const Bytes& front = write_queue_.front();
    bool would_block = false;
    long n = io_.Write(front.data() + write_offset_,
                       front.size() - write_offset_, &would_block);
    if (n < 0) {
      if (would_block) {
        return true;
      }
      FailConnection(CloseReason::kPeerGone);
      return false;
    }
    counters_.bytes_out += static_cast<uint64_t>(n);
    last_activity_us_ = now_us;
    write_offset_ += static_cast<size_t>(n);
    write_queue_bytes_ -= static_cast<size_t>(n);
    if (write_offset_ == front.size()) {
      write_queue_.pop_front();
      write_offset_ = 0;
    }
  }
  return true;
}

bool Connection::CheckDeadlines(uint64_t now_us) {
  if (state_ == State::kHandshake &&
      limits_.handshake_deadline_us != 0 &&
      now_us - created_us_ > limits_.handshake_deadline_us) {
    reason_ = CloseReason::kDeadline;
    return false;
  }
  if (state_ == State::kActive) {
    if (streams_.empty() && limits_.idle_deadline_us != 0 &&
        now_us - last_activity_us_ > limits_.idle_deadline_us) {
      reason_ = CloseReason::kDeadline;
      return false;
    }
    if (!streams_.empty() && limits_.session_deadline_us != 0 &&
        now_us - created_us_ > limits_.session_deadline_us) {
      reason_ = CloseReason::kDeadline;
      return false;
    }
  }
  if (drain_deadline_abs_us_ != 0 && now_us > drain_deadline_abs_us_) {
    reason_ = CloseReason::kDeadline;
    return false;
  }
  return true;
}

void Connection::BeginDrain(uint64_t now_us, uint64_t drain_deadline_us) {
  if (draining_) {
    return;
  }
  draining_ = true;
  drain_deadline_abs_us_ = now_us + drain_deadline_us;
  if (state_ == State::kActive) {
    SendMsg(Msg::kDraining, 0, ByteSpan());
  }
}

uint64_t Connection::NextDeadlineUs() const {
  uint64_t next = ~0ull;
  if (state_ == State::kHandshake && limits_.handshake_deadline_us != 0) {
    next = std::min(next, created_us_ + limits_.handshake_deadline_us);
  }
  if (state_ == State::kActive) {
    if (streams_.empty() && limits_.idle_deadline_us != 0) {
      next = std::min(next, last_activity_us_ + limits_.idle_deadline_us);
    }
    if (!streams_.empty() && limits_.session_deadline_us != 0) {
      next = std::min(next, created_us_ + limits_.session_deadline_us);
    }
  }
  if (drain_deadline_abs_us_ != 0) {
    next = std::min(next, drain_deadline_abs_us_);
  }
  return next;
}

}  // namespace fsx::netd
