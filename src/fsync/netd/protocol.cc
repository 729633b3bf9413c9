#include "fsync/netd/protocol.h"

#include "fsync/util/bit_io.h"

namespace fsx::netd {

namespace {

Bytes WithHeader(Msg msg, uint64_t stream, ByteSpan body) {
  BitWriter w;
  w.WriteBits(static_cast<uint8_t>(msg), 8);
  w.WriteVarint(stream);
  w.WriteBytes(body);
  return w.Finish();
}

}  // namespace

Bytes EncodeDaemonMsg(Msg msg, uint64_t stream, ByteSpan body) {
  return WithHeader(msg, stream, body);
}

StatusOr<DaemonMsg> ParseDaemonMsg(ByteSpan payload) {
  BitReader r(payload);
  DaemonMsg out;
  FSYNC_ASSIGN_OR_RETURN(uint64_t msg, r.ReadBits(8));
  if (msg < static_cast<uint64_t>(Msg::kHello) ||
      msg > static_cast<uint64_t>(Msg::kGoodbye)) {
    return Status::DataLoss("daemon: unknown message kind " +
                            std::to_string(msg));
  }
  out.msg = static_cast<Msg>(msg);
  FSYNC_ASSIGN_OR_RETURN(out.stream, r.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(out.body, r.ReadBytes(r.bits_remaining() / 8));
  return out;
}

Bytes EncodeHello() {
  BitWriter w;
  w.WriteBits(kDaemonMagic, 32);
  w.WriteBits(kDaemonVersion, 8);
  return w.Finish();
}

Status ParseHello(ByteSpan body, uint8_t* version) {
  BitReader r(body);
  FSYNC_ASSIGN_OR_RETURN(uint64_t magic, r.ReadBits(32));
  if (magic != kDaemonMagic) {
    return Status::InvalidArgument("daemon: bad hello magic");
  }
  FSYNC_ASSIGN_OR_RETURN(uint64_t v, r.ReadBits(8));
  *version = static_cast<uint8_t>(v);
  return Status::Ok();
}

Bytes EncodeHelloAck(const HelloAck& ack) {
  BitWriter w;
  w.WriteBit(ack.accepted);
  w.WriteBits(ack.version, 8);
  w.WriteBits(ack.config_digest, 64);
  w.WriteVarint(ack.config_text.size());
  w.WriteBytes(ByteSpan(
      reinterpret_cast<const uint8_t*>(ack.config_text.data()),
      ack.config_text.size()));
  return w.Finish();
}

StatusOr<HelloAck> ParseHelloAck(ByteSpan body) {
  BitReader r(body);
  HelloAck ack;
  FSYNC_ASSIGN_OR_RETURN(uint64_t accepted, r.ReadBits(1));
  ack.accepted = accepted != 0;
  FSYNC_ASSIGN_OR_RETURN(uint64_t version, r.ReadBits(8));
  ack.version = static_cast<uint8_t>(version);
  FSYNC_ASSIGN_OR_RETURN(uint64_t digest, r.ReadBits(64));
  ack.config_digest = digest;
  FSYNC_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes text, r.ReadBytes(len));
  ack.config_text.assign(text.begin(), text.end());
  return ack;
}

Bytes EncodeOpenFile(const OpenFile& open) {
  BitWriter w;
  w.WriteBits(static_cast<uint8_t>(open.kind), 8);
  w.WriteVarint(open.path.size());
  w.WriteBytes(ByteSpan(reinterpret_cast<const uint8_t*>(open.path.data()),
                        open.path.size()));
  w.WriteBytes(ByteSpan(open.first_msg.data(), open.first_msg.size()));
  return w.Finish();
}

StatusOr<OpenFile> ParseOpenFile(ByteSpan body) {
  BitReader r(body);
  OpenFile open;
  FSYNC_ASSIGN_OR_RETURN(uint64_t kind, r.ReadBits(8));
  if (kind > static_cast<uint64_t>(SessionMsg::kResumeRequest)) {
    return Status::DataLoss("daemon: unknown open kind");
  }
  open.kind = static_cast<SessionMsg>(kind);
  FSYNC_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes path, r.ReadBytes(len));
  open.path.assign(path.begin(), path.end());
  FSYNC_ASSIGN_OR_RETURN(open.first_msg, r.ReadBytes(r.bits_remaining() / 8));
  return open;
}

Bytes EncodeFileMsg(SessionMsg kind, ByteSpan payload) {
  BitWriter w;
  w.WriteBits(static_cast<uint8_t>(kind), 8);
  w.WriteBytes(payload);
  return w.Finish();
}

StatusOr<std::pair<SessionMsg, Bytes>> ParseFileMsg(ByteSpan body) {
  BitReader r(body);
  FSYNC_ASSIGN_OR_RETURN(uint64_t kind, r.ReadBits(8));
  if (kind < static_cast<uint64_t>(SessionMsg::kRoundReply) ||
      kind > static_cast<uint64_t>(SessionMsg::kFallbackRequest)) {
    return Status::DataLoss("daemon: unknown file-msg kind");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes payload, r.ReadBytes(r.bits_remaining() / 8));
  return std::make_pair(static_cast<SessionMsg>(kind), std::move(payload));
}

Bytes EncodeError(const Status& status) {
  BitWriter w;
  w.WriteBits(static_cast<uint8_t>(status.code()), 8);
  const std::string& msg = status.message();
  w.WriteVarint(msg.size());
  w.WriteBytes(
      ByteSpan(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  return w.Finish();
}

StatusOr<WireError> ParseError(ByteSpan body) {
  BitReader r(body);
  WireError err;
  FSYNC_ASSIGN_OR_RETURN(uint64_t code, r.ReadBits(8));
  err.code = static_cast<uint8_t>(code);
  FSYNC_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes msg, r.ReadBytes(len));
  err.detail.assign(msg.begin(), msg.end());
  return err;
}

}  // namespace fsx::netd
