// Daemon session protocol (v3): the control vocabulary carrying one
// whole-tree sync over one framed connection.
//
// Every daemon message travels in one record of type kRecordTypeDaemon
// (frame.h) whose payload is
//
//   [msg u8][stream varint][body...]
//
// Stream 0 is the connection control stream (hello, the tree flow,
// drain, goodbye); streams >= 1 are client-chosen ids, one per file
// session. The daemon adds routing, never protocol content:
//
//   - kWalk and kPlan bodies are the unmodified messages of the tree
//     flow's halves (core/tree_session.h): walk asks and replies, then
//     the plan and, when it names a small file, the bundle. A daemon
//     sync's tree messages are byte-identical to SyncCollectionTree's.
//   - File-session bodies are the unmodified session messages of
//     core/file_session.h, each client message tagged with its
//     SessionMsg byte, so a stream is wire-compatible with an
//     in-process session.
//
//   client -> server                      server -> client
//   kHello      magic,version             kHelloAck  verdict,digest,config
//   kWalk       walk ask                  kWalk      walk reply
//   kPlan       plan                      kPlan      bundle (if any small)
//   kOpenFile   kind,path,first msg       kFileMsg   server message
//   kFileMsg    kind,payload              kFileMsg   server message
//   kCloseStream                          kError     code,detail
//   kGoodbye                              kDraining  (stream 0)
//
// Both sides run the tree flow with the walk's fixed shape
// (reconcile/trie.h) and TreeSyncParams' default 4 KiB small-file
// threshold: they are protocol constants, and only the session config
// (negotiated in the handshake) and the server's cache come from the
// daemon. v3 lowered the threshold from v2's 16 KiB, which changes the
// files a server bundles, so the two versions do not interoperate. A
// tree message the server half refuses (an ask outside the offered walk,
// a second plan, ...) fails the connection: see docs/PROTOCOL.md,
// "Daemon protocol v3".
#ifndef FSYNC_NETD_PROTOCOL_H_
#define FSYNC_NETD_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "fsync/core/endpoint.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::netd {

/// Protocol magic ("FSXD") and version, negotiated in the handshake. A
/// server refuses mismatched magic outright and answers a higher client
/// version with its own (the client decides whether it can speak it).
inline constexpr uint32_t kDaemonMagic = 0x46535844;  // "FSXD"
inline constexpr uint8_t kDaemonVersion = 3;

enum class Msg : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kWalk = 3,
  kPlan = 4,
  kOpenFile = 5,
  kFileMsg = 6,
  kCloseStream = 7,
  kError = 8,
  kDraining = 9,
  kGoodbye = 10,
};

/// One parsed daemon message.
struct DaemonMsg {
  Msg msg = Msg::kError;
  uint64_t stream = 0;
  Bytes body;
};

/// [msg u8][stream varint][body] — the record payload.
Bytes EncodeDaemonMsg(Msg msg, uint64_t stream, ByteSpan body);
StatusOr<DaemonMsg> ParseDaemonMsg(ByteSpan payload);

// Body builders/parsers for the structured control messages. Tree-flow
// and file-session bodies are opaque half/endpoint payloads and need none.

Bytes EncodeHello();
Status ParseHello(ByteSpan body, uint8_t* version);

struct HelloAck {
  bool accepted = false;
  uint8_t version = kDaemonVersion;
  uint64_t config_digest = 0;
  std::string config_text;  // SerializeSyncConfig of the server's config
};
Bytes EncodeHelloAck(const HelloAck& ack);
StatusOr<HelloAck> ParseHelloAck(ByteSpan body);

/// kOpenFile body: [kind u8][path][first message]. `kind` is the first
/// message's SessionMsg: kRequest or kResumeRequest.
struct OpenFile {
  SessionMsg kind = SessionMsg::kRequest;
  std::string path;
  Bytes first_msg;
};
Bytes EncodeOpenFile(const OpenFile& open);
StatusOr<OpenFile> ParseOpenFile(ByteSpan body);

/// Client->server kFileMsg body: [kind u8][payload], `kind` one of
/// kRoundReply, kRepairRequest, kFallbackRequest. Server->client kFileMsg
/// bodies are raw server messages (the client session knows what it
/// awaits).
Bytes EncodeFileMsg(SessionMsg kind, ByteSpan payload);
StatusOr<std::pair<SessionMsg, Bytes>> ParseFileMsg(ByteSpan body);

struct WireError {
  uint8_t code = 0;  // StatusCode, numeric
  std::string detail;
};
Bytes EncodeError(const Status& status);
StatusOr<WireError> ParseError(ByteSpan body);

}  // namespace fsx::netd

#endif  // FSYNC_NETD_PROTOCOL_H_
