// Seed-replayable property tests for whole-tree sync (CTest label
// `tree`). Random tree-mutation workloads drive the tree conformance
// registry and pin the properties whole-tree sync claims: post-sync
// tree equality under arbitrary churn; pure renames ship zero literal
// bytes (every wire byte is manifest traffic, every changed file is
// adopted); the observer's phase attribution equals the channel's ground
// truth with the manifest phase included; and at light churn the tree
// driver beats a flat per-file announce on bytes and the per-file
// sessions on rounds. Failures print the FSX_SEED that replays them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/testing/tree_protocols.h"
#include "fsync/util/random.h"
#include "fsync/workload/tree.h"

namespace fsx {
namespace {

std::string Replay(uint64_t seed) {
  return "replay with FSX_SEED=" + std::to_string(seed);
}

/// A random churn profile: every knob the generator exposes is sampled,
/// so the sweep visits textures and churn mixes no preset covers.
TreeChurnProfile RandomProfile(Rng& rng) {
  TreeChurnProfile profile;
  profile.seed = rng.Next();
  profile.num_files = static_cast<int>(rng.UniformInt(40, 300));
  profile.min_file_bytes = 1 + rng.Uniform(64);
  profile.max_file_bytes = profile.min_file_bytes + 1 + rng.Uniform(4096);
  profile.texture = rng.Bernoulli(0.5) ? TreeChurnProfile::Texture::kRelease
                                       : TreeChurnProfile::Texture::kWeb;
  // Random split of the churned fraction across rename/edit/delete.
  double churn = 0.02 + 0.4 * rng.NextDouble();
  profile.frac_unchanged = 1.0 - churn;
  profile.frac_renamed = churn * rng.NextDouble() / 3.0;
  profile.frac_edited = churn * rng.NextDouble() / 3.0;
  profile.frac_deleted = churn / 3.0;
  profile.files_added = static_cast<int>(rng.Uniform(20));
  profile.dir_renames = static_cast<int>(rng.Uniform(3));
  return profile;
}

TEST(TreeProperty, RandomChurnAlwaysConvergesByteExactly) {
  const uint64_t seed = SeedFromEnv(0x7EE5);
  Rng rng(seed);
  for (int iter = 0; iter < 8; ++iter) {
    TreeChurnProfile profile = RandomProfile(rng);
    TreePair pair = MakeTreeWorkload(profile);
    for (const TreeProtocolEntry& protocol : TreeConformanceProtocols()) {
      SCOPED_TRACE(protocol.name + " iter " + std::to_string(iter) + " (" +
                   std::to_string(profile.num_files) + " files) — " +
                   Replay(seed));
      SimulatedChannel channel;
      obs::SyncObserver observer;
      auto r =
          protocol.run(pair.old_tree, pair.new_tree, channel, &observer);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->reconstructed, pair.new_tree);
      // Invariant 6, manifest phase included: every wire byte the
      // channel charged lands in exactly one (phase, direction) bucket.
      EXPECT_EQ(observer.dir_bytes(obs::Flow::kUp),
                channel.stats().client_to_server_bytes);
      EXPECT_EQ(observer.dir_bytes(obs::Flow::kDown),
                channel.stats().server_to_client_bytes);
    }
  }
}

TEST(TreeProperty, PureRenamesShipZeroLiteralBytes) {
  const uint64_t base_seed = SeedFromEnv(0x4E4A);
  for (int iter = 0; iter < 4; ++iter) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(iter);
    TreeCorpusPair pair = MakeTreeCorpusPair(TreeShape::kPureRename, seed);
    SCOPED_TRACE(pair.Label() + " — " + Replay(base_seed));

    SimulatedChannel channel;
    obs::SyncObserver observer;
    TreeSyncParams params;
    auto r = SyncCollectionTree(pair.old_tree, pair.new_tree, params, channel,
                                &observer);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->reconstructed, pair.new_tree);

    // Every differing file was satisfied locally; nothing ran a session
    // or rode the small-file batch, and no delta bytes were encoded.
    EXPECT_EQ(r->files_adopted, pair.new_tree.size());
    EXPECT_EQ(r->files_small, 0u);
    EXPECT_EQ(r->files_sessioned, 0u);
    // Every destination path is absent at the client (all paths moved),
    // yet none of them costs literal bytes.
    EXPECT_EQ(r->files_new, pair.new_tree.size());
    EXPECT_EQ(r->delta_bytes, 0u);
    EXPECT_EQ(observer.event_count(obs::Event::kRenameAdopted),
              pair.new_tree.size());

    // The zero-literal claim, phase by phase: all traffic is manifest
    // reconciliation; the content-bearing phases never touch the wire.
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kLiterals), 0u);
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kDelta), 0u);
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kFallback), 0u);
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kCandidates), 0u);
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kVerification), 0u);
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kContinuation), 0u);
    EXPECT_EQ(observer.phase_bytes(obs::Phase::kManifest),
              channel.stats().total_bytes());
  }
}

TEST(TreeProperty, IdenticalTreesCostOneDigestExchange) {
  TreeCorpusPair pair =
      MakeTreeCorpusPair(TreeShape::kIdenticalTrees, SeedFromEnv(21));
  SimulatedChannel channel;
  obs::SyncObserver observer;
  TreeSyncParams params;
  auto r = SyncCollectionTree(pair.old_tree, pair.new_tree, params, channel,
                              &observer);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, pair.new_tree);
  EXPECT_EQ(r->files_unchanged, pair.new_tree.size());
  EXPECT_EQ(r->manifest_rounds, 1);
  // Equal trees never pay per-file traffic: the whole sync is one
  // manifest exchange, well under a fingerprint per file.
  EXPECT_LT(channel.stats().total_bytes(), 64 + 16 * pair.new_tree.size());
}

TEST(TreeProperty, LightChurnBeatsBatchedOnBytesAndRounds) {
  const uint64_t seed = SeedFromEnv(0xBEA7);
  TreeChurnProfile profile = ReleaseTreeProfile(4000);
  profile.seed = seed;
  TreePair pair = MakeTreeWorkload(profile);

  SimulatedChannel tree_channel;
  auto tree = SyncCollectionTree(pair.old_tree, pair.new_tree, {},
                                 tree_channel);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ(tree->reconstructed, pair.new_tree) << Replay(seed);

  // At <=1% churn a flat announce of every client file's name and
  // fingerprint costs O(n) before a single file moves; the manifest walk
  // pays O(set difference). The 4x floor here is far below the measured
  // 12x, so the test stays robust across seeds while still catching a
  // regression to O(n).
  const uint64_t announce = FullExchangeBytes(pair.old_tree);
  EXPECT_LT(tree_channel.stats().total_bytes() * 4, announce)
      << Replay(seed) << ": tree " << tree_channel.stats().total_bytes()
      << " bytes vs announce " << announce;
  // A batch behind that announce needs its exchange plus the deepest
  // changed file's session: SyncCollection's count. The bundle spares
  // the tree driver most of those session rounds.
  auto per_file = SyncCollection(pair.old_tree, pair.new_tree, SyncConfig{});
  ASSERT_TRUE(per_file.ok()) << per_file.status().ToString();
  EXPECT_LT(tree_channel.stats().roundtrips, per_file->stats.roundtrips)
      << Replay(seed);
}

}  // namespace
}  // namespace fsx
