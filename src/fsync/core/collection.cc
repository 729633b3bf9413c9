#include "fsync/core/collection.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "fsync/compress/codec.h"
#include "fsync/core/endpoint.h"
#include "fsync/core/file_session.h"
#include "fsync/core/server_cache.h"
#include "fsync/core/tree_session.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Per-file fan-out: runs `run_file(name, current)` for every server file
// across the worker pool and materializes the outcomes in collection
// iteration order. The caller's fold loop then consumes them in that same
// order, so stats accumulation and error selection are identical to a
// serial run (threads change wall-clock time only). A nullopt outcome
// means run_file skipped the file (unchanged); the fold never reads those
// slots. Callers must only fan out when no observer is attached — the
// observer protocol (Snapshot/Restore, phase bytes) is order-sensitive.
template <typename R, typename Fn>
std::vector<std::optional<StatusOr<R>>> ParallelSessions(
    const Collection& server, int num_threads, const Fn& run_file) {
  std::vector<const Collection::value_type*> files;
  files.reserve(server.size());
  for (const auto& kv : server) {
    files.push_back(&kv);
  }
  std::vector<std::optional<StatusOr<R>>> out(files.size());
  par::ParallelFor(num_threads, files.size(), [&](size_t i) {
    out[i] = run_file(files[i]->first, files[i]->second);
  });
  return out;
}

// One multiplexed per-file session riding the shared channel. The server
// side is the caching wrapper: with a shared cache installed, a fan-out
// of identical collection syncs serves every per-file response from it.
struct FileSession {
  std::string name;
  std::unique_ptr<ClientFileSession> client;
  std::unique_ptr<CachedServerEndpoint> server;
  // The client's message for the next exchange: a round reply while the
  // session is live, a rung-2 or rung-3 request once its rounds are over.
  std::optional<SessionSend> next;
};

// `client_manifest` / `server_manifest` are the manifests each side
// already built for the handshake, so no endpoint hashes its file a
// second time: one fingerprint per file per side. With `hints` false the
// endpoints are built without them and hash their files again (a test
// pins that this never changes a wire byte).
std::vector<FileSession> BuildFileSessions(
    const std::vector<std::string>& names, const Collection& client,
    const Collection& server, const SyncConfig& config,
    cache::SyncCache* cache, obs::SyncObserver* obs,
    const Manifest& client_manifest, const Manifest& server_manifest,
    bool hints) {
  static const Bytes kEmpty;
  std::vector<FileSession> sessions;
  sessions.reserve(names.size());
  for (const std::string& name : names) {
    auto cit = client.find(name);
    const Bytes& f_old = cit != client.end() ? cit->second : kEmpty;
    const Bytes& f_new = server.at(name);
    auto hint = [&](const Manifest& manifest) -> const Fingerprint* {
      auto it = manifest.find(name);
      return hints && it != manifest.end() ? &it->second.fingerprint
                                           : nullptr;
    };
    FileSession s;
    s.name = name;
    s.client = std::make_unique<ClientFileSession>(f_old, config,
                                                   hint(client_manifest));
    s.client->set_observer(obs);
    s.server = std::make_unique<CachedServerEndpoint>(
        f_new, config, cache, obs, hint(server_manifest));
    sessions.push_back(std::move(s));
  }
  return sessions;
}

// Every file's initial request, concatenated: the batch the multiplexed
// loop consumes first. Callers send it themselves so they can pipeline it
// behind other same-direction messages (a consecutive same-direction send
// costs no roundtrip).
Bytes BuildInitialRequestBatch(std::vector<FileSession>& sessions) {
  BitWriter batch;
  for (FileSession& s : sessions) {
    Bytes req = s.client->Start().bytes;
    batch.WriteVarint(req.size());
    batch.WriteBytes(req);
  }
  return batch.Finish();
}

// One batched ladder exchange for every session whose next message is
// `kind` (rung 2 or rung 3). The client sends their plan indices, with
// each repair request's payload (the fallback ask carries none); the
// server answers each in order; every reply goes back to its session.
Status RunLadderExchange(std::vector<FileSession>& sessions, SessionMsg kind,
                         SimulatedChannel& channel, obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  std::vector<size_t> ids;  // ascending plan indices
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i].next.has_value() && sessions[i].next->kind == kind) {
      ids.push_back(i);
    }
  }
  if (ids.empty()) {
    return Status::Ok();
  }
  const bool repair = kind == SessionMsg::kRepairRequest;
  obs::SetPhase(obs, SessionMsgPhase(kind));
  BitWriter ask;
  ask.WriteVarint(ids.size());
  for (size_t i : ids) {
    ask.WriteVarint(i);
    if (repair) {
      ask.WriteVarint(sessions[i].next->bytes.size());
      ask.WriteBytes(sessions[i].next->bytes);
    }
  }
  channel.Send(Dir::kClientToServer, ask.Finish());
  FSYNC_ASSIGN_OR_RETURN(Bytes ask_msg, channel.Receive(Dir::kClientToServer));

  BitReader ain(ask_msg);
  FSYNC_ASSIGN_OR_RETURN(uint64_t n, ain.ReadVarint());
  BitWriter replies;
  uint64_t full_bytes = 0;  // repair replies that carried the whole file
  for (uint64_t k = 0; k < n; ++k) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t idx, ain.ReadVarint());
    Bytes req;
    if (repair) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, ain.ReadVarint());
      FSYNC_ASSIGN_OR_RETURN(req, ain.ReadBytes(len));
    }
    if (idx >= sessions.size()) {
      return Status::DataLoss("multiplexed sessions: bad ladder index");
    }
    CachedServerEndpoint& server = *sessions[idx].server;
    FSYNC_ASSIGN_OR_RETURN(Bytes reply, server.Handle(kind, req));
    if (repair && server.repair_used_full()) {
      full_bytes += reply.size();
    }
    replies.WriteVarint(reply.size());
    replies.WriteBytes(reply);
  }
  obs::SetPhase(obs, SessionReplyPhase(kind));
  channel.Send(Dir::kServerToClient, replies.Finish());
  FSYNC_ASSIGN_OR_RETURN(Bytes reply_msg,
                         channel.Receive(Dir::kServerToClient));
  obs::Reattribute(obs, obs::Phase::kLiterals, obs::Phase::kFallback,
                   obs::Flow::kDown, full_bytes);

  BitReader rin(reply_msg);
  for (size_t i : ids) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t len, rin.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(Bytes payload, rin.ReadBytes(len));
    FSYNC_ASSIGN_OR_RETURN(sessions[i].next,
                           sessions[i].client->OnServerMessage(payload));
  }
  return Status::Ok();
}

struct MultiplexTotals {
  uint64_t delta_bytes = 0;  // encoded delta payload across all sessions
};

// The large files' sessions of SyncCollectionTree: runs every per-file
// session to completion with ONE message per direction per round for the
// whole batch, then (only when some reconstruction failed its fingerprint
// check) one exchange per ladder rung for all the broken sessions at once.
// `c2s` is the already-received initial request batch. On success every
// session's client holds its reconstruction. Framing: docs/PROTOCOL.md,
// "Multiplexed batches".
StatusOr<MultiplexTotals> RunMultiplexedSessions(
    std::vector<FileSession>& sessions, const SyncConfig& config,
    SimulatedChannel& channel, obs::SyncObserver* obs, Bytes c2s) {
  using Dir = SimulatedChannel::Direction;
  SessionMsg kind = SessionMsg::kRequest;
  std::vector<FileSession*> live;
  live.reserve(sessions.size());
  for (FileSession& s : sessions) {
    live.push_back(&s);
  }
  uint32_t batch_round = 0;
  while (!live.empty()) {
    obs::SetRound(obs, ++batch_round);
    const auto round_start = obs != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    // Server: one sub-payload per live file.
    obs::SetPhase(obs, obs::Phase::kCandidates);
    BitReader in(c2s);
    BitWriter batch;
    for (FileSession* s : live) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
      FSYNC_ASSIGN_OR_RETURN(Bytes payload, in.ReadBytes(len));
      FSYNC_ASSIGN_OR_RETURN(Bytes reply, s->server->Handle(kind, payload));
      batch.WriteVarint(reply.size());
      batch.WriteBytes(reply);
    }
    kind = SessionMsg::kRoundReply;
    channel.Send(Dir::kServerToClient, batch.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes s2c, channel.Receive(Dir::kServerToClient));

    // Client: consume replies; files whose rounds are over drop out (the
    // server's endpoint reaches done() in the same step, so both sides
    // agree on the live set without signalling).
    BitReader rin(s2c);
    BitWriter next;
    size_t still_live = 0;
    for (FileSession* s : live) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, rin.ReadVarint());
      FSYNC_ASSIGN_OR_RETURN(Bytes payload, rin.ReadBytes(len));
      FSYNC_ASSIGN_OR_RETURN(s->next, s->client->OnServerMessage(payload));
      if (s->next.has_value() && s->next->kind == SessionMsg::kRoundReply) {
        next.WriteVarint(s->next->bytes.size());
        next.WriteBytes(s->next->bytes);
        live[still_live++] = s;
      }
    }
    live.resize(still_live);
    if (!live.empty()) {
      obs::SetPhase(obs, obs::Phase::kVerification);
      channel.Send(Dir::kClientToServer, next.Finish());
      FSYNC_ASSIGN_OR_RETURN(c2s, channel.Receive(Dir::kClientToServer));
    }
    if (obs != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - round_start;
      obs->RecordRound(
          batch_round,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

  MultiplexTotals totals;
  for (const FileSession& s : sessions) {
    totals.delta_bytes += s.server->delta_payload_bytes();
  }
  if (obs != nullptr) {
    uint64_t continuation_bits = 0;
    for (const FileSession& s : sessions) {
      continuation_bits +=
          ContinuationHashBits(config, s.client->endpoint().trace());
    }
    ReattributeRoundAnswers(*obs, totals.delta_bytes, continuation_bits);
  }

  // The ladder (rare): one exchange for every region repair, then one
  // for every session still broken.
  FSYNC_RETURN_IF_ERROR(RunLadderExchange(
      sessions, SessionMsg::kRepairRequest, channel, obs));
  FSYNC_RETURN_IF_ERROR(RunLadderExchange(
      sessions, SessionMsg::kFallbackRequest, channel, obs));

  for (FileSession& s : sessions) {
    if (s.next.has_value() || !s.client->endpoint().done()) {
      return Status::Internal("multiplexed sessions: unfinished session");
    }
  }
  return totals;
}

}  // namespace

StatusOr<CollectionSyncResult> SyncCollection(const Collection& client,
                                              const Collection& server,
                                              const SyncConfig& config,
                                              obs::SyncObserver* obs,
                                              cache::SyncCache* cache) {
  CollectionSyncResult result;
  result.stats.client_to_server_bytes += FullExchangeBytes(client);
  // The fingerprint exchange is charged out-of-band (no channel carries
  // it); mirror it into the observer so phase sums match the stats.
  obs::AddBytes(obs, obs::Phase::kHandshake, obs::Flow::kUp,
                FullExchangeBytes(client));
  result.files_total = server.size();

  uint64_t max_roundtrips = 0;
  static const Bytes kEmpty;
  // Per-file sessions are independent; fan them out when configured and
  // no observer is attached (the observer's Snapshot/Restore rollback is
  // order-sensitive). The fold below consumes outcomes in collection
  // order, so results and stats are identical to the serial path.
  auto run_one = [&](const std::string& name,
                     const Bytes& current) -> StatusOr<FileSyncResult> {
    auto it = client.find(name);
    const Bytes& outdated = it != client.end() ? it->second : kEmpty;
    SimulatedChannel channel;
    return SynchronizeFile(outdated, current, config, channel, obs, cache);
  };
  std::vector<std::optional<StatusOr<FileSyncResult>>> pre;
  if (config.num_threads > 1 && obs == nullptr) {
    pre = ParallelSessions<FileSyncResult>(server, config.num_threads,
                                           run_one);
  }
  size_t file_idx = 0;
  for (const auto& [name, current] : server) {
    const size_t idx = file_idx++;
    auto it = client.find(name);
    if (it == client.end()) {
      ++result.files_new;
    }

    // Unchanged files' session traffic is excluded from the collection
    // stats below; snapshot the observer so it can be rolled back too.
    obs::SyncObserver::State mark;
    if (obs != nullptr) {
      mark = obs->Snapshot();
    }
    StatusOr<FileSyncResult> r_or =
        pre.empty() ? run_one(name, current) : std::move(*pre[idx]);
    FSYNC_ASSIGN_OR_RETURN(FileSyncResult r, std::move(r_or));
    if (r.reconstructed != current) {
      return Status::Internal("collection sync: reconstruction mismatch");
    }
    if (r.unchanged) {
      ++result.files_unchanged;
      // The fingerprint exchange above already paid for detecting this;
      // do not charge the per-file session's fingerprint again.
      if (obs != nullptr) {
        obs->Restore(mark);
      }
    } else {
      result.stats.client_to_server_bytes +=
          r.stats.client_to_server_bytes;
      result.stats.server_to_client_bytes +=
          r.stats.server_to_client_bytes;
      max_roundtrips = std::max(max_roundtrips, r.stats.roundtrips);
      result.map_server_to_client_bytes += r.map_server_to_client_bytes;
      result.map_client_to_server_bytes += r.map_client_to_server_bytes;
      result.delta_bytes += r.delta_bytes;
    }
    result.reconstructed[name] = std::move(r.reconstructed);
  }
  result.stats.roundtrips = max_roundtrips + 1;  // +1 fingerprint exchange
  return result;
}

namespace {

// SyncCollectionTree; `fingerprint_hints` as in BuildFileSessions. The
// tree-level decisions are the halves' (core/tree_session.h); this loop
// moves their messages and runs the large files' sessions.
StatusOr<TreeSyncResult> SyncCollectionTreeImpl(const Collection& client,
                                                const Collection& server,
                                                const TreeSyncParams& params,
                                                SimulatedChannel& channel,
                                                obs::SyncObserver* obs,
                                                bool fingerprint_hints) {
  using Dir = SimulatedChannel::Direction;
  FSYNC_RETURN_IF_ERROR(ValidateSyncConfig(params.config));
  ObservedSession scope(channel, obs, "session-tree");
  TreeSyncClient tree_client(client, params, obs);
  const TreeSnapshot snapshot(server, params);
  TreeSyncServer tree_server(snapshot, obs);

  // --- 1. Manifest reconciliation (trie walk, Phase::kManifest). ---
  const TrafficStats before = channel.stats();
  FSYNC_RETURN_IF_ERROR(
      reconcile_internal::PumpWalk(tree_client, tree_server, channel, obs));
  TreeSyncResult& result = tree_client.result();
  result.manifest_bytes = TrafficSince(before, channel.stats()).total_bytes();

  if (std::optional<Bytes> plan = tree_client.Plan()) {
    // --- 2. Sync plan: the client requests every residual stale path,
    //         then pipelines the large files' initial session requests
    //         behind it (consecutive same-direction sends share one
    //         roundtrip with the server's replies below). ---
    obs::SetPhase(obs, obs::Phase::kManifest);
    channel.Send(Dir::kClientToServer, *plan);
    std::vector<FileSession> sessions = BuildFileSessions(
        tree_client.large(), client, server, params.config, params.cache,
        obs, tree_client.manifest(), snapshot.manifest, fingerprint_hints);
    if (!sessions.empty()) {
      obs::SetPhase(obs, obs::Phase::kCandidates);
      channel.Send(Dir::kClientToServer, BuildInitialRequestBatch(sessions));
    }

    // Server: answer the small files with one compressed bundle.
    FSYNC_ASSIGN_OR_RETURN(Bytes plan_msg,
                           channel.Receive(Dir::kClientToServer));
    FSYNC_ASSIGN_OR_RETURN(Bytes bundle, tree_server.OnPlan(plan_msg));
    if (!bundle.empty()) {
      obs::SetPhase(obs, obs::Phase::kLiterals);
      channel.Send(Dir::kServerToClient, bundle);
    }
    if (tree_client.awaits_bundle()) {
      FSYNC_ASSIGN_OR_RETURN(Bytes bundle_msg,
                             channel.Receive(Dir::kServerToClient));
      FSYNC_RETURN_IF_ERROR(tree_client.OnBundle(bundle_msg));
    }

    // --- 3. Multiplexed per-file sessions for the large files. ---
    if (!sessions.empty()) {
      FSYNC_ASSIGN_OR_RETURN(Bytes c2s,
                             channel.Receive(Dir::kClientToServer));
      FSYNC_ASSIGN_OR_RETURN(
          MultiplexTotals totals,
          RunMultiplexedSessions(sessions, params.config, channel, obs,
                                 std::move(c2s)));
      result.delta_bytes = totals.delta_bytes;
      for (FileSession& s : sessions) {
        result.reconstructed[s.name] = s.client->endpoint().result();
      }
    }
  }

  result.stats = channel.stats();
  return std::move(result);
}

}  // namespace

StatusOr<TreeSyncResult> SyncCollectionTree(const Collection& client,
                                            const Collection& server,
                                            const TreeSyncParams& params,
                                            SimulatedChannel& channel,
                                            obs::SyncObserver* obs) {
  return SyncCollectionTreeImpl(client, server, params, channel, obs,
                                /*fingerprint_hints=*/true);
}

StatusOr<CollectionSyncResult> SyncCollectionBatched(
    const Collection& client, const Collection& server,
    const SyncConfig& config, SimulatedChannel& channel,
    obs::SyncObserver* obs, cache::SyncCache* cache) {
  FSYNC_ASSIGN_OR_RETURN(
      TreeSyncResult tree,
      SyncCollectionTree(client, server, {.config = config, .cache = cache},
                         channel, obs));
  CollectionSyncResult result;
  result.reconstructed = std::move(tree.reconstructed);
  result.stats = tree.stats;
  result.files_total = tree.files_total;
  result.files_unchanged = tree.files_unchanged;
  result.files_new = tree.files_new;
  result.delta_bytes = tree.delta_bytes;
  return result;
}

namespace core_internal {

StatusOr<TreeSyncResult> SyncCollectionTreeWithoutHints(
    const Collection& client, const Collection& server,
    const TreeSyncParams& params, SimulatedChannel& channel) {
  return SyncCollectionTreeImpl(client, server, params, channel, nullptr,
                                /*fingerprint_hints=*/false);
}

}  // namespace core_internal

namespace {

// The comparator collection drivers: the fingerprint exchange finds the
// unchanged files, then `sync(f_old, f_new, channel)` runs once per other
// server file, each over its own channel, fanned out across `num_threads`
// when no observer is attached. Results fold in collection order, so
// stats and error selection match a serial run; roundtrips are the
// maximum over files plus the exchange.
template <typename R, typename Sync>
StatusOr<CollectionSyncResult> SyncCollectionPerFile(
    const Collection& client, const Collection& server, int num_threads,
    obs::SyncObserver* obs, const char* mismatch, const Sync& sync) {
  CollectionSyncResult result;
  result.stats.client_to_server_bytes += FullExchangeBytes(client);
  obs::AddBytes(obs, obs::Phase::kHandshake, obs::Flow::kUp,
                FullExchangeBytes(client));
  result.files_total = server.size();

  auto run_one = [&](const std::string& name, const Bytes& current)
      -> std::optional<StatusOr<R>> {
    static const Bytes kEmpty;
    auto it = client.find(name);
    if (it != client.end() && it->second == current) {
      return std::nullopt;  // unchanged: the fold skips it
    }
    const Bytes& outdated = it != client.end() ? it->second : kEmpty;
    SimulatedChannel channel;
    return sync(outdated, current, channel);
  };
  std::vector<std::optional<StatusOr<R>>> pre;
  if (num_threads > 1 && obs == nullptr) {
    pre = ParallelSessions<R>(server, num_threads, run_one);
  }
  uint64_t max_roundtrips = 0;
  size_t file_idx = 0;
  for (const auto& [name, current] : server) {
    const size_t idx = file_idx++;
    if (!client.contains(name)) {
      ++result.files_new;
    }
    std::optional<StatusOr<R>> r_or =
        pre.empty() ? run_one(name, current) : std::move(pre[idx]);
    if (!r_or.has_value()) {
      ++result.files_unchanged;
      result.reconstructed[name] = current;
      continue;  // detected via the fingerprint exchange above
    }
    FSYNC_ASSIGN_OR_RETURN(R r, std::move(*r_or));
    if (r.reconstructed != current) {
      return Status::Internal(mismatch);
    }
    result.stats.client_to_server_bytes += r.stats.client_to_server_bytes;
    result.stats.server_to_client_bytes += r.stats.server_to_client_bytes;
    max_roundtrips = std::max(max_roundtrips, r.stats.roundtrips);
    result.reconstructed[name] = std::move(r.reconstructed);
  }
  result.stats.roundtrips = max_roundtrips + 1;
  return result;
}

}  // namespace

StatusOr<CollectionSyncResult> SyncCollectionRsync(const Collection& client,
                                                   const Collection& server,
                                                   const RsyncParams& params,
                                                   obs::SyncObserver* obs) {
  return SyncCollectionPerFile<RsyncResult>(
      client, server, params.num_threads, obs,
      "rsync collection: reconstruction mismatch",
      [&](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel) {
        return RsyncSynchronize(f_old, f_new, params, channel, obs);
      });
}

StatusOr<CollectionSyncResult> SyncCollectionCdc(const Collection& client,
                                                 const Collection& server,
                                                 const CdcSyncParams& params,
                                                 obs::SyncObserver* obs) {
  return SyncCollectionPerFile<CdcSyncResult>(
      client, server, params.num_threads, obs,
      "cdc collection: reconstruction mismatch",
      [&](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel) {
        return CdcSynchronize(f_old, f_new, params, channel, obs);
      });
}

StatusOr<CollectionSyncResult> SyncCollectionMultiround(
    const Collection& client, const Collection& server,
    const MultiroundParams& params, obs::SyncObserver* obs) {
  return SyncCollectionPerFile<MultiroundResult>(
      client, server, params.num_threads, obs,
      "multiround collection: mismatch",
      [&](ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel) {
        return MultiroundSynchronize(f_old, f_new, params, channel, obs);
      });
}

uint64_t CollectionFullTransferBytes(const Collection& client,
                                     const Collection& server) {
  uint64_t total = FullExchangeBytes(client);
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    if (it != client.end() && it->second == current) {
      continue;
    }
    total += current.size();
  }
  return total;
}

uint64_t CollectionCompressedTransferBytes(const Collection& client,
                                           const Collection& server) {
  uint64_t total = FullExchangeBytes(client);
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    if (it != client.end() && it->second == current) {
      continue;
    }
    total += Compress(current).size();
  }
  return total;
}

StatusOr<uint64_t> CollectionDeltaBytes(const Collection& client,
                                        const Collection& server,
                                        DeltaCodec codec) {
  uint64_t total = FullExchangeBytes(client);
  static const Bytes kEmpty;
  for (const auto& [name, current] : server) {
    auto it = client.find(name);
    const Bytes& outdated = it != client.end() ? it->second : kEmpty;
    if (it != client.end() && it->second == current) {
      continue;
    }
    FSYNC_ASSIGN_OR_RETURN(Bytes delta,
                           DeltaEncode(codec, outdated, current));
    // Sanity: the delta must round-trip.
    FSYNC_ASSIGN_OR_RETURN(Bytes back, DeltaDecode(codec, outdated, delta));
    if (back != current) {
      return Status::Internal("delta baseline: round-trip mismatch");
    }
    total += delta.size();
  }
  return total;
}

}  // namespace fsx
