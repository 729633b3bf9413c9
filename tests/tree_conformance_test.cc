// Tree-level conformance suite (CTest labels `conformance`, `tree`,
// `par`): the tree-mutation corpus is seed-deterministic and covers the
// advertised shapes; every registered tree protocol survives the
// differential sweep's six invariants; the manifest-reconciliation and
// rename-detection primitives are exact; and wire output is
// bit-identical at any thread count (the `par` contract). Failures
// print the FSX_SEED that replays them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fsync/obs/sync_obs.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/testing/differential.h"
#include "fsync/testing/tree_corpus.h"
#include "fsync/testing/tree_protocols.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

std::string Replay(uint64_t seed) {
  return "replay with FSX_SEED=" + std::to_string(seed);
}

/// Multiset of file contents, ignoring paths — the invariant a pure
/// rename preserves.
std::multiset<Bytes> ContentMultiset(const Collection& tree) {
  std::multiset<Bytes> contents;
  for (const auto& [name, data] : tree) {
    contents.insert(data);
  }
  return contents;
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

TEST(TreeCorpus, CoversTheAdvertisedShapes) {
  EXPECT_GE(AllTreeShapes().size(), 12u);
  std::set<std::string> names;
  for (TreeShape shape : AllTreeShapes()) {
    EXPECT_TRUE(names.insert(TreeShapeName(shape)).second)
        << "duplicate shape name " << TreeShapeName(shape);
  }
}

TEST(TreeCorpus, PairsAreSeedDeterministic) {
  const uint64_t seed = SeedFromEnv(99);
  for (TreeShape shape : AllTreeShapes()) {
    TreeCorpusPair a = MakeTreeCorpusPair(shape, seed);
    TreeCorpusPair b = MakeTreeCorpusPair(shape, seed);
    EXPECT_EQ(a.old_tree, b.old_tree) << a.Label();
    EXPECT_EQ(a.new_tree, b.new_tree) << a.Label();
  }
  // A different seed must actually reshuffle the content somewhere.
  TreeCorpusPair a = MakeTreeCorpusPair(TreeShape::kMixedChurn, seed);
  TreeCorpusPair c = MakeTreeCorpusPair(TreeShape::kMixedChurn, seed + 1);
  EXPECT_NE(a.old_tree, c.old_tree);
}

TEST(TreeCorpus, ShapesHaveTheirDefiningStructure) {
  const uint64_t seed = SeedFromEnv(7);

  TreeCorpusPair same = MakeTreeCorpusPair(TreeShape::kIdenticalTrees, seed);
  EXPECT_FALSE(same.old_tree.empty());
  EXPECT_EQ(same.old_tree, same.new_tree);

  TreeCorpusPair fill = MakeTreeCorpusPair(TreeShape::kEmptyToFull, seed);
  EXPECT_TRUE(fill.old_tree.empty());
  EXPECT_FALSE(fill.new_tree.empty());

  TreeCorpusPair drain = MakeTreeCorpusPair(TreeShape::kFullToEmpty, seed);
  EXPECT_FALSE(drain.old_tree.empty());
  EXPECT_TRUE(drain.new_tree.empty());

  // Pure rename: every path changed, no content changed.
  TreeCorpusPair ren = MakeTreeCorpusPair(TreeShape::kPureRename, seed);
  EXPECT_EQ(ContentMultiset(ren.old_tree), ContentMultiset(ren.new_tree));
  for (const auto& [name, data] : ren.new_tree) {
    EXPECT_FALSE(ren.old_tree.contains(name))
        << "pure-rename path " << name << " did not move";
  }

  // Swap: same paths, same contents, different assignment.
  TreeCorpusPair swap = MakeTreeCorpusPair(TreeShape::kRenameSwap, seed);
  EXPECT_NE(swap.old_tree, swap.new_tree);
  EXPECT_EQ(ContentMultiset(swap.old_tree), ContentMultiset(swap.new_tree));
  for (const auto& [name, data] : swap.new_tree) {
    EXPECT_TRUE(swap.old_tree.contains(name)) << name;
  }

  // Fan-out: one blob dominates the tree under many names.
  TreeCorpusPair fan =
      MakeTreeCorpusPair(TreeShape::kIdenticalContentFanout, seed);
  std::map<Bytes, int> by_content;
  for (const auto& [name, data] : fan.new_tree) {
    ++by_content[data];
  }
  int max_copies = 0;
  for (const auto& [data, n] : by_content) {
    max_copies = std::max(max_copies, n);
  }
  EXPECT_GE(max_copies, 10) << "fan-out shape lost its shared blob";
}

// ---------------------------------------------------------------------------
// Differential sweep
// ---------------------------------------------------------------------------

TEST(TreeConformance, RegistryHasBundleAndSessionEntries) {
  const std::vector<TreeProtocolEntry>& protocols = TreeConformanceProtocols();
  ASSERT_EQ(protocols.size(), 2u);
  std::set<std::string> names;
  for (const TreeProtocolEntry& p : protocols) {
    names.insert(p.name);
  }
  EXPECT_TRUE(names.contains("collection-tree"));
  EXPECT_TRUE(names.contains("collection-tree-sessions"));
}

TEST(TreeConformance, AllProtocolsPassTheDifferentialSweep) {
  const uint64_t seed = SeedFromEnv(2026);
  DifferentialReport report =
      RunTreeDifferential(MakeTreeConformanceCorpus(2, seed));
  EXPECT_TRUE(report.ok()) << Replay(seed) << "\n" << report.Summary();
  EXPECT_EQ(report.runs, report.protocols * report.pairs);
}

// ---------------------------------------------------------------------------
// Manifest reconciliation primitives
// ---------------------------------------------------------------------------

TEST(ManifestReconcileTest, FindsTheExactDifference) {
  const uint64_t seed = SeedFromEnv(11);
  TreeCorpusPair pair = MakeTreeCorpusPair(TreeShape::kMixedChurn, seed);
  Manifest client = BuildManifest(pair.old_tree);
  Manifest server = BuildManifest(pair.new_tree);

  SimulatedChannel channel;
  auto diff = ManifestReconcile(client, server, channel);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();

  // Ground truth, computed locally.
  std::set<std::string> want_differing;
  for (const auto& [name, entry] : server) {
    auto it = client.find(name);
    if (it == client.end() || !(it->second == entry)) {
      want_differing.insert(name);
    }
  }
  std::set<std::string> want_extra;
  for (const auto& [name, entry] : client) {
    if (!server.contains(name)) {
      want_extra.insert(name);
    }
  }

  std::set<std::string> got_differing(diff->stale.begin(), diff->stale.end());
  for (const AdoptOp& op : diff->adopts) {
    EXPECT_TRUE(got_differing.insert(op.path).second)
        << op.path << " is both stale and adopted";
  }
  EXPECT_EQ(got_differing, want_differing) << Replay(seed);
  EXPECT_EQ(std::set<std::string>(diff->extra.begin(), diff->extra.end()),
            want_extra);
  // stale_entries carries the server row for every differing path.
  for (const std::string& name : want_differing) {
    auto it = diff->stale_entries.find(name);
    ASSERT_NE(it, diff->stale_entries.end()) << name;
    EXPECT_EQ(it->second, server.at(name)) << name;
  }
}

TEST(ManifestReconcileTest, IdenticalManifestsCostOneExchange) {
  TreeCorpusPair pair =
      MakeTreeCorpusPair(TreeShape::kIdenticalTrees, SeedFromEnv(3));
  Manifest manifest = BuildManifest(pair.old_tree);
  SimulatedChannel channel;
  auto diff = ManifestReconcile(manifest, manifest, channel);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_TRUE(diff->stale.empty());
  EXPECT_TRUE(diff->extra.empty());
  EXPECT_TRUE(diff->adopts.empty());
  EXPECT_EQ(diff->rounds, 1);
}

TEST(DetectAdoptionsTest, PicksTheSmallestSourceDeterministically) {
  Bytes blob = ToBytes("shared content blob");
  Manifest client;
  ManifestEntry entry{FileFingerprint(blob), blob.size(), 0644};
  client["z/copy.bin"] = entry;
  client["a/copy.bin"] = entry;
  client["m/copy.bin"] = entry;

  ManifestDiff diff;
  diff.stale = {"dst/one.bin", "dst/two.bin"};
  diff.stale_entries["dst/one.bin"] = entry;
  diff.stale_entries["dst/two.bin"] = entry;
  DetectAdoptions(client, diff);

  EXPECT_TRUE(diff.stale.empty());
  ASSERT_EQ(diff.adopts.size(), 2u);
  // Both destinations adopt from the lexicographically smallest source;
  // a single source may serve many destinations.
  for (const AdoptOp& op : diff.adopts) {
    EXPECT_EQ(op.from, "a/copy.bin") << op.path;
  }
  EXPECT_EQ(diff.adopts[0].path, "dst/one.bin");
  EXPECT_EQ(diff.adopts[1].path, "dst/two.bin");
}

TEST(DetectAdoptionsTest, RequiresMatchingModeAndSize) {
  Bytes blob = ToBytes("content whose metadata must match too");
  ManifestEntry server_entry{FileFingerprint(blob), blob.size(), 0644};

  Manifest wrong_mode;
  wrong_mode["exec/copy"] = {server_entry.fingerprint, server_entry.size, 0755};
  ManifestDiff diff;
  diff.stale = {"dst"};
  diff.stale_entries["dst"] = server_entry;
  DetectAdoptions(wrong_mode, diff);
  EXPECT_TRUE(diff.adopts.empty()) << "adopted across a mode change";
  EXPECT_EQ(diff.stale, std::vector<std::string>{"dst"});

  Manifest wrong_size;
  wrong_size["trunc/copy"] = {server_entry.fingerprint, server_entry.size + 1, 0644};
  ManifestDiff diff2;
  diff2.stale = {"dst"};
  diff2.stale_entries["dst"] = server_entry;
  DetectAdoptions(wrong_size, diff2);
  EXPECT_TRUE(diff2.adopts.empty()) << "adopted across a size mismatch";
}

// ---------------------------------------------------------------------------
// Thread-count determinism (the `par` contract)
// ---------------------------------------------------------------------------

TEST(TreeThreadedConformance, WireIsBitIdenticalAtAnyThreadCount) {
  constexpr int kThreads = 4;
  const uint64_t seed = SeedFromEnv(404);
  const std::vector<TreeProtocolEntry>& serial = TreeConformanceProtocols();
  std::vector<TreeProtocolEntry> threaded =
      ThreadedTreeConformanceProtocols(kThreads);
  ASSERT_EQ(serial.size(), threaded.size());

  const std::vector<TreeShape> shapes = {
      TreeShape::kPureRename, TreeShape::kDirMove, TreeShape::kSmallFileSwarm,
      TreeShape::kMixedChurn};
  for (size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].name, threaded[p].name);
    for (TreeShape shape : shapes) {
      TreeCorpusPair pair = MakeTreeCorpusPair(shape, seed);
      SCOPED_TRACE(serial[p].name + " / " + pair.Label() + " — " +
                   Replay(seed));

      SimulatedChannel ch1;
      ch1.EnableTranscript();
      auto r1 = serial[p].run(pair.old_tree, pair.new_tree, ch1, nullptr);
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();

      SimulatedChannel ch2;
      ch2.EnableTranscript();
      auto r2 = threaded[p].run(pair.old_tree, pair.new_tree, ch2, nullptr);
      ASSERT_TRUE(r2.ok()) << r2.status().ToString();

      EXPECT_EQ(r1->reconstructed, r2->reconstructed);
      EXPECT_EQ(r1->files_adopted, r2->files_adopted);
      const auto& t1 = ch1.transcript();
      const auto& t2 = ch2.transcript();
      ASSERT_EQ(t1.size(), t2.size());
      for (size_t m = 0; m < t1.size(); ++m) {
        ASSERT_EQ(t1[m].dir, t2[m].dir) << "message " << m;
        ASSERT_EQ(t1[m].payload, t2[m].payload) << "message " << m;
      }
    }
  }
}

TEST(TreeThreadedConformance, ThreadedSweepPassesAllInvariants) {
  const uint64_t seed = SeedFromEnv(808);
  DifferentialReport report = RunTreeDifferential(
      MakeTreeConformanceCorpus(1, seed), ThreadedTreeConformanceProtocols(4));
  EXPECT_TRUE(report.ok()) << Replay(seed) << "\n" << report.Summary();
}

}  // namespace
}  // namespace fsx
