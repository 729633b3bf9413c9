#include "fsync/core/session.h"

#include <algorithm>
#include <optional>

#include "fsync/core/endpoint.h"
#include "fsync/core/file_session.h"
#include "fsync/core/server_cache.h"

namespace fsx {

namespace {

bool IsMapMsg(SessionMsg kind) { return kind <= SessionMsg::kRoundReply; }

}  // namespace

StatusOr<FileSyncResult> SyncSession::Run(SimulatedChannel& channel,
                                          obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  FSYNC_RETURN_IF_ERROR(ValidateSyncConfig(config_));

  ObservedSession scope(channel, obs, "session");
  ClientFileSession client(f_old_, config_);
  client.endpoint().set_observer(obs);
  client.set_observer(obs);
  client.set_checkpoint_fn(checkpoint_fn_);
  CachedServerEndpoint server(
      f_new_, config_, server_cache_, obs,
      fp_new_hint_.has_value() ? &*fp_new_hint_ : nullptr);

  // Map rounds, then the ladder's rungs if the reconstruction fails its
  // fingerprint check (docs/PROTOCOL.md). Server messages carry the
  // round's candidate hashes (plus, mixed in, continuation hashes and
  // eventually the delta — re-attributed below); client replies carry
  // match bitmaps and verification hashes.
  std::optional<SessionSend> up =
      client.Start(resume_cp_.has_value() ? &*resume_cp_ : nullptr);
  std::optional<TrafficStats> map_stats;  // traffic when the map ended
  uint32_t exchange = 0;
  while (up.has_value()) {
    const SessionMsg kind = up->kind;
    if (!IsMapMsg(kind) && !map_stats.has_value()) {
      map_stats = channel.stats();
    }
    obs::SetPhase(obs, SessionMsgPhase(kind));
    channel.Send(Dir::kClientToServer, up->bytes);
    FSYNC_ASSIGN_OR_RETURN(Bytes req, channel.Receive(Dir::kClientToServer));
    FSYNC_ASSIGN_OR_RETURN(Bytes reply, server.Handle(kind, req));
    if (IsMapMsg(kind)) {
      obs::SetRound(obs, ++exchange);
    }
    obs::SetPhase(obs, SessionReplyPhase(kind));
    channel.Send(Dir::kServerToClient, reply);
    FSYNC_ASSIGN_OR_RETURN(Bytes msg, channel.Receive(Dir::kServerToClient));
    if (kind == SessionMsg::kRepairRequest && server.repair_used_full()) {
      // The reply actually carried the whole file, not region literals.
      obs::Reattribute(obs, obs::Phase::kLiterals, obs::Phase::kFallback,
                       obs::Flow::kDown, MessageWireBytes(reply.size()));
    }
    FSYNC_ASSIGN_OR_RETURN(up, client.OnServerMessage(msg));
  }
  const SyncClientEndpoint& ep = client.endpoint();
  if (!ep.done()) {
    return Status::Internal("session ended without completion");
  }
  if (!map_stats.has_value()) {
    map_stats = channel.stats();
  }

  if (obs != nullptr) {
    ReattributeRoundAnswers(*obs, server.delta_payload_bytes(),
                            ContinuationHashBits(config_, ep.trace()));
  }

  FileSyncResult result;
  result.reconstructed = ep.result();
  result.stats = channel.stats();
  result.unchanged = ep.unchanged();
  result.rounds = ep.rounds_executed();
  result.trace = ep.trace();
  result.confirmed_fraction = ep.confirmed_fraction();
  result.resumed = client.resumed();
  result.resumed_rounds = client.resumed_rounds();
  result.degradation_level = client.degradation_level();
  result.fallback = client.degradation_level() == 2;
  result.repaired_regions = client.repaired_regions();
  // Phase attribution: the delta rides in the final server message; the
  // remainder of the loop traffic is map construction plus fixed headers.
  result.delta_bytes = server.delta_payload_bytes();
  result.map_server_to_client_bytes =
      map_stats->server_to_client_bytes -
      std::min(map_stats->server_to_client_bytes, result.delta_bytes);
  result.map_client_to_server_bytes = map_stats->client_to_server_bytes;
  result.server_cpu_ns = server.server_cpu_ns();
  return result;
}

StatusOr<FileSyncResult> SynchronizeFile(ByteSpan f_old, ByteSpan f_new,
                                         const SyncConfig& config,
                                         SimulatedChannel& channel,
                                         obs::SyncObserver* obs,
                                         cache::SyncCache* cache) {
  SyncSession session(f_old, f_new, config);
  session.set_server_cache(cache);
  return session.Run(channel, obs);
}

}  // namespace fsx
