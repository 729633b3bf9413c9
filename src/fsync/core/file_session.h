// ClientFileSession: the client side of one file synchronization as a
// message-in/message-out state machine. It owns the whole per-file flow
// of docs/PROTOCOL.md — request or checkpoint resume, the map rounds,
// then the degradation ladder (region repair, full transfer) — and the
// checkpoint hook, so every driver only moves its messages:
//
//   SessionSend out = session.Start();
//   for (;;) {
//     reply = server.Handle(out.kind, out.bytes);   // any transport
//     next = session.OnServerMessage(reply);
//     if (!next) break;                             // done
//     out = *next;
//   }
//
// SyncSession runs it over a SimulatedChannel, the collection drivers
// multiplex many of them per message, and the daemon client frames each
// one as a stream (netd/client.cc). The server side is
// SyncServerEndpoint::Handle (or CachedServerEndpoint::Handle).
#ifndef FSYNC_CORE_FILE_SESSION_H_
#define FSYNC_CORE_FILE_SESSION_H_

#include <functional>
#include <optional>
#include <vector>

#include "fsync/core/checkpoint.h"
#include "fsync/core/config.h"
#include "fsync/core/endpoint.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// One client-to-server message: what it asks for and its payload.
struct SessionSend {
  SessionMsg kind = SessionMsg::kRequest;
  Bytes bytes;
};

/// Observer phase a client message of `kind` pays for, and the phase of
/// the server's answer to it. Round answers also carry continuation
/// hashes and the delta; drivers re-attribute those slices afterwards.
obs::Phase SessionMsgPhase(SessionMsg kind);
obs::Phase SessionReplyPhase(SessionMsg kind);

/// Bits of continuation hashes the server's round messages carried, per
/// the client's round traces.
uint64_t ContinuationHashBits(const SyncConfig& config,
                              const std::vector<RoundTrace>& trace);

/// Per-message attribution charges every round answer to kCandidates,
/// but the final one embeds the delta payload and the others embed
/// continuation hashes. Moves those slices (`delta_bytes` and
/// `continuation_bits` / 8) out once all sends are counted; Reattribute
/// clamps, so totals (and the conformance cross-check) are preserved
/// exactly.
void ReattributeRoundAnswers(obs::SyncObserver& obs, uint64_t delta_bytes,
                             uint64_t continuation_bits);

class ClientFileSession {
 public:
  /// `f_old` must outlive the session (not copied). `fp_old`, when the
  /// caller already knows FileFingerprint(f_old), spares hashing the file
  /// again (see SyncClientEndpoint).
  ClientFileSession(ByteSpan f_old, const SyncConfig& config,
                    const Fingerprint* fp_old = nullptr)
      : ep_(f_old, config, fp_old) {}

  /// Invoked after every newly completed map round with the up-to-date
  /// checkpoint (rounds a resume restored do not fire it).
  void set_checkpoint_fn(std::function<void(const SessionCheckpoint&)> fn) {
    checkpoint_fn_ = std::move(fn);
  }

  /// Receives the session's robustness events (kResume, kRepairRegion,
  /// kFullFallback). Round tracing is the endpoint's own hook
  /// (endpoint().set_observer).
  void set_observer(obs::SyncObserver* obs) { obs_ = obs; }

  /// The first message: a resume request when `resume` is non-null and
  /// validates against the local file and config, else a plain request.
  /// An unusable checkpoint is ignored, never an error.
  SessionSend Start(const SessionCheckpoint* resume = nullptr);

  /// Consumes the server's answer to the last message sent and returns
  /// the next one, or nullopt when the session is done (endpoint().done()
  /// and result() then hold the reconstruction).
  StatusOr<std::optional<SessionSend>> OnServerMessage(ByteSpan msg);

  bool resumed() const { return ep_.resumed(); }
  int resumed_rounds() const { return resumed_rounds_; }
  /// Ladder rung that finished the session: 0 = delta reconstruction,
  /// 1 = region repair, 2 = full transfer.
  int degradation_level() const { return degradation_level_; }
  uint32_t repaired_regions() const { return ep_.repaired_regions(); }

  SyncClientEndpoint& endpoint() { return ep_; }
  const SyncClientEndpoint& endpoint() const { return ep_; }

 private:
  // What follows the map phase for a session whose endpoint finished its
  // rounds: done, rung 2, or rung 3.
  std::optional<SessionSend> AfterMapPhase();
  // Records `kind` as the message whose answer comes next.
  SessionSend Send(SessionMsg kind, Bytes bytes);
  std::optional<SessionSend> Finish(int level);

  SyncClientEndpoint ep_;
  std::function<void(const SessionCheckpoint&)> checkpoint_fn_;
  obs::SyncObserver* obs_ = nullptr;
  SessionMsg awaiting_ = SessionMsg::kRequest;  // kind of the last send
  int saved_rounds_ = 0;  // rounds the checkpoint hook has already seen
  int resumed_rounds_ = 0;
  int degradation_level_ = 0;
};

}  // namespace fsx

#endif  // FSYNC_CORE_FILE_SESSION_H_
