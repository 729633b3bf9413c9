// Pins the one-fingerprint-per-file-per-side rule: an endpoint handed the
// fingerprint its caller already computed must put exactly the bytes on
// the wire that an endpoint hashing its own file does. Covers endpoint
// pairs and SynchronizeFile's session over the conformance corpus, both
// resume outcomes (accepted and rejected) through a hinted server
// endpoint, and the tree collection driver, whose manifest fingerprints
// feed its per-file sessions. Labeled `conformance`;
// FSX_SEED=<n> replays a failure.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/core/endpoint.h"
#include "fsync/core/session.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/testing/corpus.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

void ExpectSameTranscript(const SimulatedChannel& a,
                          const SimulatedChannel& b) {
  const auto& ta = a.transcript();
  const auto& tb = b.transcript();
  ASSERT_EQ(ta.size(), tb.size()) << "message count diverged";
  for (size_t m = 0; m < ta.size(); ++m) {
    ASSERT_EQ(static_cast<int>(ta[m].dir), static_cast<int>(tb[m].dir))
        << "direction of message " << m;
    ASSERT_EQ(ta[m].payload, tb[m].payload)
        << "payload of message " << m << " diverged";
  }
}

// Every message of one endpoint-pair session, in order: the map rounds,
// then the full-transfer rung if the reconstruction fails. `hinted`
// hands both endpoints their file's fingerprint.
std::vector<Bytes> PumpEndpoints(ByteSpan f_old, ByteSpan f_new,
                                 const SyncConfig& config, bool hinted) {
  const Fingerprint fp_old = FileFingerprint(f_old);
  const Fingerprint fp_new = FileFingerprint(f_new);
  SyncClientEndpoint client(f_old, config, hinted ? &fp_old : nullptr);
  SyncServerEndpoint server(f_new, config, hinted ? &fp_new : nullptr);
  std::vector<Bytes> msgs = {client.MakeRequest()};
  auto down = server.OnRequest(msgs.back());
  while (down.ok()) {
    msgs.push_back(*down);
    auto up = client.OnServerMessage(msgs.back());
    if (!up.ok() || !up->has_value()) {
      break;
    }
    msgs.push_back(**up);
    down = server.OnClientMessage(msgs.back());
  }
  if (client.needs_fallback()) {
    msgs.push_back(server.OnFallbackRequest());
    EXPECT_TRUE(client.OnFallbackTransfer(msgs.back()).ok());
  }
  EXPECT_TRUE(client.done());
  EXPECT_EQ(client.result(), Bytes(f_new.begin(), f_new.end()));
  return msgs;
}

// Runs one SyncSession, with or without the server fingerprint hint.
StatusOr<FileSyncResult> RunSession(
    ByteSpan f_old, ByteSpan f_new, const SyncConfig& config, bool hinted,
    SimulatedChannel& channel,
    const std::optional<SessionCheckpoint>& resume = std::nullopt) {
  SyncSession session(f_old, f_new, config);
  if (hinted) {
    session.set_server_fingerprint_hint(FileFingerprint(f_new));
  }
  if (resume.has_value()) {
    session.set_resume_checkpoint(*resume);
  }
  channel.EnableTranscript();
  return session.Run(channel);
}

TEST(FingerprintHints, EndpointsSendIdenticalMessagesWithHints) {
  const uint64_t seed = SeedFromEnv(1319);
  SyncConfig config;
  for (const CorpusPair& pair : MakeConformanceCorpus(2, seed)) {
    SCOPED_TRACE(pair.Label() + " FSX_SEED=" + std::to_string(seed));
    EXPECT_EQ(PumpEndpoints(pair.f_old, pair.f_new, config, false),
              PumpEndpoints(pair.f_old, pair.f_new, config, true));
  }
}

TEST(FingerprintHints, SessionWireIdenticalWithHints) {
  const uint64_t seed = SeedFromEnv(1321);
  SyncConfig config;
  for (const CorpusPair& pair : MakeConformanceCorpus(2, seed)) {
    SCOPED_TRACE(pair.Label() + " FSX_SEED=" + std::to_string(seed));
    SimulatedChannel plain;
    plain.EnableTranscript();
    auto r0 = SynchronizeFile(pair.f_old, pair.f_new, config, plain);
    SimulatedChannel hinted;
    auto r1 = RunSession(pair.f_old, pair.f_new, config, true, hinted);
    ASSERT_EQ(r0.ok(), r1.ok());
    if (!r0.ok()) {
      continue;
    }
    EXPECT_EQ(r1->reconstructed, pair.f_new);
    EXPECT_EQ(r0->unchanged, r1->unchanged);
    ExpectSameTranscript(plain, hinted);
  }
}

TEST(FingerprintHints, ResumeAcceptedAndRejectedWithHints) {
  const uint64_t seed = SeedFromEnv(1323);
  SCOPED_TRACE("FSX_SEED=" + std::to_string(seed));
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, seed);
  SyncConfig config;

  // The first checkpoint of a full run: a mid-map resume point.
  std::optional<SessionCheckpoint> cp;
  {
    SimulatedChannel channel;
    SyncSession session(pair.f_old, pair.f_new, config);
    session.set_checkpoint_fn([&cp](const SessionCheckpoint& c) {
      if (!cp.has_value()) {
        cp = c;
      }
    });
    ASSERT_TRUE(session.Run(channel).ok());
    ASSERT_TRUE(cp.has_value());
  }

  // Accepted: the target is the one the checkpoint describes.
  {
    SimulatedChannel plain, hinted;
    auto r0 = RunSession(pair.f_old, pair.f_new, config, false, plain, cp);
    auto r1 = RunSession(pair.f_old, pair.f_new, config, true, hinted, cp);
    ASSERT_TRUE(r0.ok() && r1.ok());
    EXPECT_TRUE(r0->resumed);
    EXPECT_TRUE(r1->resumed);
    EXPECT_EQ(r1->reconstructed, pair.f_new);
    ExpectSameTranscript(plain, hinted);
  }

  // Rejected: the server's file changed since the checkpoint, so the
  // hinted endpoint must refuse it and embed a fresh round 1.
  Bytes newer = pair.f_new;
  newer.push_back(0xAB);
  newer[newer.size() / 2] ^= 0xFF;
  {
    SimulatedChannel plain, hinted;
    auto r0 = RunSession(pair.f_old, newer, config, false, plain, cp);
    auto r1 = RunSession(pair.f_old, newer, config, true, hinted, cp);
    ASSERT_TRUE(r0.ok() && r1.ok());
    EXPECT_FALSE(r0->resumed);
    EXPECT_FALSE(r1->resumed);
    EXPECT_EQ(r1->reconstructed, newer);
    ExpectSameTranscript(plain, hinted);
  }
}

// One file per corpus shape, plus the handshake's special cases: a file
// only the server has, one only the client has, an unchanged file, and a
// rename the server adopts from the client's copy.
void CorpusCollections(uint64_t seed, Collection& client,
                       Collection& server) {
  int i = 0;
  for (CorpusShape shape : AllCorpusShapes()) {
    const CorpusPair pair = MakeCorpusPair(shape, seed);
    const std::string name = "corpus/" + std::string(CorpusShapeName(shape));
    server[name] = pair.f_new;
    if (i++ % 6 != 5) {
      client[name] = pair.f_old;
    }
  }
  const Bytes text = ToBytes("same on both sides\n");
  client["same"] = text;
  server["same"] = text;
  client["client-only"] = ToBytes("deleted on the server\n");
  const Bytes moved = MakeCorpusPair(CorpusShape::kBinaryEdit, seed).f_old;
  client["old-name"] = moved;
  server["new-name"] = moved;
}

TEST(FingerprintHints, TreeCollectionWireIdenticalWithHints) {
  const uint64_t seed = SeedFromEnv(1329);
  std::vector<std::pair<std::string, std::pair<Collection, Collection>>>
      inputs;
  {
    Collection client, server;
    CorpusCollections(seed, client, server);
    inputs.push_back({"corpus", {client, server}});
  }
  for (TreeShape shape : AllTreeShapes()) {
    TreeCorpusPair pair = MakeTreeCorpusPair(shape, seed);
    inputs.push_back({pair.Label(), {pair.old_tree, pair.new_tree}});
  }
  for (const auto& [label, trees] : inputs) {
    const auto& [client, server] = trees;
    // Threshold 0 sends every stale file through a per-file session.
    for (uint64_t small :
         {uint64_t{0}, TreeSyncParams{}.small_file_threshold}) {
      SCOPED_TRACE(label + " small_file_threshold=" + std::to_string(small) +
                   " FSX_SEED=" + std::to_string(seed));
      TreeSyncParams params;
      params.small_file_threshold = small;
      SimulatedChannel plain;
      plain.EnableTranscript();
      auto r0 = core_internal::SyncCollectionTreeWithoutHints(client, server,
                                                              params, plain);
      SimulatedChannel hinted;
      hinted.EnableTranscript();
      auto r1 = SyncCollectionTree(client, server, params, hinted);
      ASSERT_TRUE(r0.ok()) << r0.status().message();
      ASSERT_TRUE(r1.ok()) << r1.status().message();
      EXPECT_EQ(r1->reconstructed, server);
      EXPECT_EQ(r0->files_sessioned, r1->files_sessioned);
      ExpectSameTranscript(plain, hinted);
    }
  }
}

}  // namespace
}  // namespace fsx
