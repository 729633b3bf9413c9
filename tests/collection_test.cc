#include <gtest/gtest.h>

#include "fsync/core/adaptive.h"
#include "fsync/core/collection.h"
#include "fsync/core/tree_session.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

struct Snapshots {
  Collection old_snap;
  Collection new_snap;
};

Snapshots MakeSnapshots(uint64_t seed, int files) {
  Rng rng(seed);
  Snapshots s;
  for (int i = 0; i < files; ++i) {
    std::string name = "f" + std::to_string(i);
    Bytes content = SynthSourceFile(rng, 2000 + rng.Uniform(20000));
    s.old_snap[name] = content;
    if (i % 3 == 0) {
      s.new_snap[name] = content;  // unchanged
    } else {
      EditProfile ep;
      ep.num_edits = static_cast<int>(rng.UniformInt(1, 10));
      s.new_snap[name] = ApplyEdits(content, ep, rng);
    }
  }
  return s;
}

TEST(Collection, SyncReconstructsEveryFile) {
  Snapshots s = MakeSnapshots(1, 12);
  SyncConfig config;
  auto r = SyncCollection(s.old_snap, s.new_snap, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, s.new_snap);
  EXPECT_EQ(r->files_total, s.new_snap.size());
  EXPECT_EQ(r->files_unchanged, 4u);
}

TEST(Collection, UnchangedFilesCostOnlyFingerprints) {
  Snapshots s;
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    Bytes content = SynthSourceFile(rng, 10000);
    s.old_snap["f" + std::to_string(i)] = content;
    s.new_snap["f" + std::to_string(i)] = content;
  }
  SyncConfig config;
  auto r = SyncCollection(s.old_snap, s.new_snap, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files_unchanged, 10u);
  // Fingerprint exchange only: ~(16 + name) per file.
  EXPECT_LT(r->stats.total_bytes(), 10 * 64u);
}

TEST(Collection, NewFilesAreTransferred) {
  Snapshots s = MakeSnapshots(3, 5);
  Rng rng(4);
  s.new_snap["brand_new"] = SynthSourceFile(rng, 15000);
  SyncConfig config;
  auto r = SyncCollection(s.old_snap, s.new_snap, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files_new, 1u);
  EXPECT_EQ(r->reconstructed.at("brand_new"), s.new_snap.at("brand_new"));
}

TEST(Collection, DeletedFilesDisappear) {
  Snapshots s = MakeSnapshots(5, 5);
  s.new_snap.erase(s.new_snap.begin());
  SyncConfig config;
  auto r = SyncCollection(s.old_snap, s.new_snap, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->reconstructed, s.new_snap);
}

TEST(Collection, RsyncBaselineReconstructs) {
  Snapshots s = MakeSnapshots(6, 10);
  RsyncParams params;
  auto r = SyncCollectionRsync(s.old_snap, s.new_snap, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, s.new_snap);
}

TEST(Collection, CdcBaselineReconstructs) {
  Snapshots s = MakeSnapshots(9, 10);
  CdcSyncParams params;
  auto r = SyncCollectionCdc(s.old_snap, s.new_snap, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, s.new_snap);
  // Single-roundtrip family: chunk offer + have-bitmap + data.
  EXPECT_LT(r->stats.roundtrips, 6u);
}

TEST(Collection, CostOrderingMatchesPaper) {
  // full > gzip > rsync > fsync-protocol > delta lower bound.
  Snapshots s = MakeSnapshots(7, 16);
  SyncConfig config;
  RsyncParams rsync_params;

  uint64_t full = CollectionFullTransferBytes(s.old_snap, s.new_snap);
  uint64_t gz = CollectionCompressedTransferBytes(s.old_snap, s.new_snap);
  auto ours = SyncCollection(s.old_snap, s.new_snap, config);
  auto rs = SyncCollectionRsync(s.old_snap, s.new_snap, rsync_params);
  auto delta = CollectionDeltaBytes(s.old_snap, s.new_snap, DeltaCodec::kZd);
  ASSERT_TRUE(ours.ok());
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(delta.ok());

  EXPECT_LT(gz, full);
  EXPECT_LT(rs->stats.total_bytes(), gz);
  EXPECT_LT(ours->stats.total_bytes(), rs->stats.total_bytes());
  EXPECT_LE(*delta, ours->stats.total_bytes());
}

TEST(Collection, RoundtripsAreBatchedNotSummed) {
  Snapshots s = MakeSnapshots(8, 20);
  SyncConfig config;
  auto r = SyncCollection(s.old_snap, s.new_snap, config);
  ASSERT_TRUE(r.ok());
  // Roundtrips must scale with protocol depth, not with file count.
  EXPECT_LT(r->stats.roundtrips, 30u);
}

// The multiplexed (batched) collection sync: SyncCollectionTree.
TEST(CollectionBatched, ReconstructsAndSharesRoundtrips) {
  Snapshots s = MakeSnapshots(10, 15);
  SyncConfig config;
  SimulatedChannel channel;
  auto r = SyncCollectionTree(s.old_snap, s.new_snap, {.config = config},
                              channel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, s.new_snap);
  // True multiplexing: total roundtrips ~= deepest single file's session
  // plus the manifest walk and plan, far below #files * rounds.
  EXPECT_LT(r->stats.roundtrips, 30u);
  // And it should be comparable in bytes to the per-file accounting.
  auto per_file = SyncCollection(s.old_snap, s.new_snap, config);
  ASSERT_TRUE(per_file.ok());
  EXPECT_LT(r->stats.total_bytes(),
            per_file->stats.total_bytes() * 3 / 2 + 4096);
}

TEST(CollectionBatched, HandlesNewDeletedAndUnchanged) {
  Snapshots s = MakeSnapshots(11, 8);
  Rng rng(12);
  s.new_snap.erase(s.new_snap.begin());
  s.new_snap["added_file"] = SynthSourceFile(rng, 12000);
  SimulatedChannel channel;
  auto r = SyncCollectionTree(s.old_snap, s.new_snap, {}, channel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, s.new_snap);
  EXPECT_EQ(r->files_new, 1u);
  EXPECT_GT(r->files_unchanged, 0u);
}

TEST(CollectionBatched, EmptyCollections) {
  SimulatedChannel channel;
  auto r = SyncCollectionTree({}, {}, {}, channel);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reconstructed.empty());
}

TEST(CollectionBatched, AllUnchangedCostsOneDigestExchange) {
  Snapshots s;
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    Bytes content = SynthSourceFile(rng, 20000);
    s.old_snap["f" + std::to_string(i)] = content;
    s.new_snap["f" + std::to_string(i)] = content;
  }
  SimulatedChannel channel;
  auto r = SyncCollectionTree(s.old_snap, s.new_snap, {}, channel);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files_unchanged, 10u);
  EXPECT_EQ(r->stats.roundtrips, 1u);  // the root digests match
  EXPECT_LT(r->stats.total_bytes(), 10 * 64u);
}

// A config SynchronizeFile refuses must be refused by the multiplexed
// driver too (it used to loop forever on these).
TEST(CollectionBatched, InvalidConfigIsRejectedNotRun) {
  Snapshots s = MakeSnapshots(5, 6);
  for (int which = 0; which < 2; ++which) {
    SyncConfig config;
    (which == 0 ? config.start_block_size : config.min_continuation_block) =
        0;
    TreeSyncParams params;
    params.config = config;
    params.small_file_threshold = 0;
    SimulatedChannel tree_channel;
    auto tree =
        SyncCollectionTree(s.old_snap, s.new_snap, params, tree_channel);
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument) << which;
  }
}

// SyncCollectionBatched survives only as perfbench's adapter over
// SyncCollectionTree: the same wire, message for message.
TEST(CollectionBatched, AdapterTranscriptEqualsTreeDriver) {
  Snapshots s = MakeSnapshots(14, 12);
  Rng rng(15);
  s.new_snap.erase(s.new_snap.begin());
  s.new_snap["added_file"] = SynthSourceFile(rng, 12000);
  s.new_snap["small_file"] = SynthSourceFile(rng, 600);
  const SyncConfig config = ChooseConfig(32 * 1024, 32 * 1024);
  cache::SyncCache cache;

  SimulatedChannel tree_channel;
  tree_channel.EnableTranscript();
  auto tree = SyncCollectionTree(s.old_snap, s.new_snap,
                                 {.config = config, .cache = &cache},
                                 tree_channel);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_GT(tree->files_small, 0u);
  ASSERT_GT(tree->files_sessioned, 0u);

  SimulatedChannel adapter_channel;
  adapter_channel.EnableTranscript();
  auto adapter = SyncCollectionBatched(s.old_snap, s.new_snap, config,
                                       adapter_channel, nullptr, &cache);
  ASSERT_TRUE(adapter.ok()) << adapter.status().ToString();
  EXPECT_EQ(adapter->reconstructed, s.new_snap);
  ASSERT_EQ(adapter_channel.transcript().size(),
            tree_channel.transcript().size());
  for (size_t i = 0; i < tree_channel.transcript().size(); ++i) {
    EXPECT_EQ(adapter_channel.transcript()[i].dir,
              tree_channel.transcript()[i].dir)
        << "message " << i;
    EXPECT_EQ(adapter_channel.transcript()[i].payload,
              tree_channel.transcript()[i].payload)
        << "message " << i;
  }
  EXPECT_EQ(adapter->stats.client_to_server_bytes,
            tree->stats.client_to_server_bytes);
  EXPECT_EQ(adapter->stats.server_to_client_bytes,
            tree->stats.server_to_client_bytes);
  EXPECT_EQ(adapter->stats.roundtrips, tree->stats.roundtrips);
  EXPECT_EQ(adapter->files_total, tree->files_total);
  EXPECT_EQ(adapter->files_unchanged, tree->files_unchanged);
  EXPECT_EQ(adapter->files_new, tree->files_new);
  EXPECT_EQ(adapter->delta_bytes, tree->delta_bytes);
}

TEST(Collection, EmptyCollections) {
  SyncConfig config;
  auto r = SyncCollection({}, {}, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reconstructed.empty());
}

TEST(TreeSession, CorruptedBundledFileIsDataLoss) {
  // An empty client takes every file in the bundle. With one byte of one
  // served file flipped after the snapshot took its fingerprints, the
  // bundle no longer matches what the walk delivered: the batched check
  // must refuse the whole bundle. The clean run beside it must land.
  Rng rng(71);
  Collection served;
  for (int i = 0; i < 40; ++i) {
    served["d" + std::to_string(i % 3) + "/f" + std::to_string(i)] =
        rng.RandomBytes(60 + 37 * i);
  }
  const Collection empty;
  const TreeSyncParams params;
  for (bool corrupt : {false, true}) {
    SCOPED_TRACE(corrupt ? "corrupt" : "clean");
    Collection tree = served;
    const TreeSnapshot snapshot(tree, params);
    if (corrupt) {
      tree.at("d2/f17")[5] ^= 0x01;
    }
    TreeSyncServer server(snapshot);
    TreeSyncClient client(empty, params);
    std::optional<Bytes> ask = client.Start();
    while (ask.has_value()) {
      auto reply = server.OnWalk(*ask);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      auto next = client.OnWalkReply(*reply);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ask = std::move(*next);
    }
    std::optional<Bytes> plan = client.Plan();
    ASSERT_TRUE(plan.has_value());
    ASSERT_TRUE(client.awaits_bundle());
    auto bundle = server.OnPlan(*plan);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const Status st = client.OnBundle(*bundle);
    if (corrupt) {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
      EXPECT_TRUE(client.result().reconstructed.empty());
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(client.result().reconstructed, served);
    }
  }
}

}  // namespace
}  // namespace fsx
