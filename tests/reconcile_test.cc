#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "fsync/reconcile/manifest.h"
#include "fsync/reconcile/trie.h"
#include "fsync/util/random.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

// A manifest of `n` random fingerprints, each of size 0 and mode 0644.
Manifest MakeDigests(uint64_t seed, int n, const std::string& prefix) {
  Rng rng(seed);
  Manifest out;
  for (int i = 0; i < n; ++i) {
    Fingerprint fp;
    Bytes r = rng.RandomBytes(16);
    std::copy(r.begin(), r.end(), fp.begin());
    out[prefix + std::to_string(i)] = ManifestEntry{fp};
  }
  return out;
}

ManifestDiff MustReconcile(const Manifest& client, const Manifest& server) {
  SimulatedChannel channel;
  auto r = ManifestReconcile(client, server, channel);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(*r);
}

// Reference answer computed directly. The walk's differing paths are
// its stale ones plus the adopted ones.
void ExpectExact(const Manifest& client, const Manifest& server,
                 const ManifestDiff& r) {
  std::vector<std::string> want_stale;
  std::vector<std::string> want_extra;
  for (const auto& [name, entry] : server) {
    auto it = client.find(name);
    if (it == client.end() || it->second != entry) {
      want_stale.push_back(name);
    }
  }
  for (const auto& [name, entry] : client) {
    if (!server.contains(name)) {
      want_extra.push_back(name);
    }
  }
  std::vector<std::string> got_stale = r.stale;
  for (const AdoptOp& op : r.adopts) {
    got_stale.push_back(op.path);
  }
  std::sort(got_stale.begin(), got_stale.end());
  EXPECT_EQ(got_stale, want_stale);
  EXPECT_EQ(r.extra, want_extra);
}

TEST(Merkle, IdenticalSetsCostOneRound) {
  Manifest files = MakeDigests(1, 500, "f");
  ManifestDiff r = MustReconcile(files, files);
  EXPECT_TRUE(r.stale.empty());
  EXPECT_TRUE(r.extra.empty());
  EXPECT_EQ(r.rounds, 1);
  EXPECT_LT(r.stats.total_bytes(), 64u);
}

TEST(Merkle, SingleChangedFileFound) {
  Manifest client = MakeDigests(2, 1000, "f");
  Manifest server = client;
  server["f123"].fingerprint[0] ^= 0xFF;
  ManifestDiff r = MustReconcile(client, server);
  ASSERT_EQ(r.stale.size(), 1u);
  EXPECT_EQ(r.stale[0], "f123");
  EXPECT_TRUE(r.extra.empty());
  // Far cheaper than exchanging 1000 fingerprints (~20 KB).
  EXPECT_LT(r.stats.total_bytes(), FullExchangeBytes(client) / 10);
}

TEST(Merkle, AddedAndRemovedFiles) {
  Manifest client = MakeDigests(3, 200, "f");
  Manifest server = client;
  server.erase("f7");
  server.erase("f42");
  server["brand/new"] = ManifestEntry{};
  ManifestDiff r = MustReconcile(client, server);
  ExpectExact(client, server, r);
}

TEST(Merkle, DisjointSets) {
  Manifest client = MakeDigests(4, 50, "a");
  Manifest server = MakeDigests(5, 50, "b");
  ManifestDiff r = MustReconcile(client, server);
  ExpectExact(client, server, r);
  EXPECT_EQ(r.stale.size(), 50u);
  EXPECT_EQ(r.extra.size(), 50u);
}

TEST(Merkle, EmptySides) {
  Manifest files = MakeDigests(6, 20, "f");
  ManifestDiff a = MustReconcile({}, files);
  EXPECT_EQ(a.stale.size(), 20u);
  ManifestDiff b = MustReconcile(files, {});
  EXPECT_EQ(b.extra.size(), 20u);
  ManifestDiff c = MustReconcile({}, {});
  EXPECT_TRUE(c.stale.empty());
  EXPECT_TRUE(c.extra.empty());
}

TEST(Merkle, CostScalesWithChangesNotCollectionSize) {
  Manifest small_client = MakeDigests(7, 100, "f");
  Manifest big_client = MakeDigests(7, 10000, "f");
  Manifest small_server = small_client;
  Manifest big_server = big_client;
  small_server["f5"].fingerprint[0] ^= 1;
  big_server["f5"].fingerprint[0] ^= 1;
  ManifestDiff rs = MustReconcile(small_client, small_server);
  ManifestDiff rb = MustReconcile(big_client, big_server);
  // 100x the files must cost far less than 100x the bytes (log growth).
  EXPECT_LT(rb.stats.total_bytes(), rs.stats.total_bytes() * 8);
}

class MerkleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MerkleFuzz, AlwaysExact) {
  Rng rng(GetParam());
  int n = 1 + static_cast<int>(rng.Uniform(400));
  Manifest client = MakeDigests(GetParam() * 13 + 1, n, "f");
  Manifest server = client;
  // Random churn.
  int changes = static_cast<int>(rng.Uniform(20));
  for (int i = 0; i < changes; ++i) {
    switch (rng.Uniform(3)) {
      case 0: {  // modify
        auto it = server.begin();
        std::advance(it, rng.Uniform(server.size()));
        it->second.fingerprint[rng.Uniform(16)] ^=
            static_cast<uint8_t>(1 + rng.Uniform(255));
        break;
      }
      case 1: {  // delete
        if (!server.empty()) {
          auto it = server.begin();
          std::advance(it, rng.Uniform(server.size()));
          server.erase(it);
        }
        break;
      }
      default: {  // add
        Fingerprint fp;
        Bytes r = rng.RandomBytes(16);
        std::copy(r.begin(), r.end(), fp.begin());
        server["new" + std::to_string(rng.Uniform(1000))] = ManifestEntry{fp};
        break;
      }
    }
  }
  ManifestDiff r = MustReconcile(client, server);
  ExpectExact(client, server, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MerkleFuzz,
                         ::testing::Range<uint64_t>(0, 25));

TEST(Merkle, WalksOnOneChannelReportTheirOwnTraffic) {
  Manifest client = MakeDigests(9, 300, "f");
  Manifest server = client;
  server["f17"].fingerprint[0] ^= 1;
  SimulatedChannel channel;
  auto first = ManifestReconcile(client, server, channel);
  auto second = ManifestReconcile(client, server, channel);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_GT(first->stats.total_bytes(), 0u);
  EXPECT_EQ(second->stats.client_to_server_bytes,
            first->stats.client_to_server_bytes);
  EXPECT_EQ(second->stats.server_to_client_bytes,
            first->stats.server_to_client_bytes);
  EXPECT_EQ(second->stats.roundtrips, first->stats.roundtrips);
}

TEST(Merkle, BuildManifestMatchesFingerprints) {
  // Sizes from empty to past a few MD5 blocks, so the four-lane batch
  // and every thread-count split see uneven files.
  Rng rng(8);
  std::map<std::string, Bytes> files;
  for (int i = 0; i < 23; ++i) {
    files["f" + std::to_string(i)] =
        rng.RandomBytes(static_cast<size_t>(rng.Uniform(600)));
  }
  files["empty"] = {};
  files["src.c"] = SynthSourceFile(rng, 2000);
  const Manifest serial = BuildManifest(files);
  ASSERT_EQ(serial.size(), files.size());
  for (const auto& [name, data] : files) {
    const ManifestEntry want{FileFingerprint(data), data.size(), 0644};
    EXPECT_EQ(serial.at(name), want) << name;
  }
  for (int n : {1, 2, 3, 8}) {
    EXPECT_EQ(BuildManifest(files, n), serial) << n << " threads";
  }
}

// --- The walk's node-hash memo (TrieSide, MemoDescendantHashes) --------

using reconcile_internal::DescendantHashes;
using reconcile_internal::DescentLevels;
using reconcile_internal::NodeHash;
using reconcile_internal::NodeId;
using reconcile_internal::TrieClient;
using reconcile_internal::TrieServer;
using reconcile_internal::TrieSide;

// A server manifest and clients that differ from it in different ways:
// identical, a few changed files, a renamed slice, and empty.
struct MemoFixture {
  Manifest server = MakeDigests(11, 3000, "f");
  std::vector<Manifest> clients;
  MemoFixture() {
    clients.push_back(server);
    Manifest changed = server;
    for (int i = 0; i < 3000; i += 97) {
      changed["f" + std::to_string(i)].fingerprint[3] ^= 0x5A;
    }
    clients.push_back(std::move(changed));
    Manifest renamed = server;
    for (int i = 0; i < 200; ++i) {
      renamed.erase("f" + std::to_string(i));
      renamed["g" + std::to_string(i)] = server.at("f" + std::to_string(i));
    }
    clients.push_back(std::move(renamed));
    clients.push_back(Manifest{});
  }
};

// One walk of `client` against a server half over `side`: every ask and
// every reply, in order.
struct WalkTranscript {
  std::vector<Bytes> asks;
  std::vector<Bytes> replies;
};

WalkTranscript Walk(const Manifest& client, const TrieSide& side) {
  WalkTranscript t;
  TrieClient walk_client(client);
  TrieServer walk_server(side);
  std::optional<Bytes> ask = walk_client.Start();
  while (ask.has_value()) {
    t.asks.push_back(*ask);
    auto reply = walk_server.OnWalk(*ask);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (!reply.ok()) break;
    t.replies.push_back(*reply);
    auto next = walk_client.OnWalkReply(*reply);
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok()) break;
    ask = std::move(*next);
  }
  return t;
}

// The nodes an ask names that the server answers by descending: all of
// them but a root whose hash the server's side matches.
std::vector<NodeId> AskedNodes(ByteSpan ask, const TrieSide& side) {
  BitReader in(ask);
  auto count = in.ReadVarint();
  EXPECT_TRUE(count.ok());
  std::vector<NodeId> nodes;
  for (uint64_t i = 0; count.ok() && i < *count; ++i) {
    auto node = reconcile_internal::ReadNodeId(in);
    EXPECT_TRUE(node.ok());
    if (!node.ok()) break;
    if (node->depth == 0) {
      auto root = in.ReadBits(8 * reconcile_internal::kNodeHashBytes);
      EXPECT_TRUE(root.ok());
      if (root.ok() && *root == side.root_hash) {
        continue;
      }
    }
    nodes.push_back(*node);
  }
  return nodes;
}

TEST(TrieMemo, MemoizedHashesEqualAFreshComputation) {
  const MemoFixture fx;
  const TrieSide side = reconcile_internal::BuildSide(fx.server);
  EXPECT_EQ(side.root_hash, NodeHash(side, NodeId{}));
  size_t descended = 0;
  for (const Manifest& client : fx.clients) {
    const WalkTranscript walk = Walk(client, side);
    for (const Bytes& ask : walk.asks) {
      for (const NodeId& node : AskedNodes(ask, side)) {
        auto [lo, hi] = reconcile_internal::NodeRange(side.entries, node);
        if (hi - lo <= reconcile_internal::kLeafBatch) {
          continue;  // answered with its entries, nothing hashed
        }
        const int levels = DescentLevels(node.depth);
        const std::vector<uint64_t> fresh =
            DescendantHashes(side, node, levels);
        // The node's descendant hashes were memoized by the walk, and a
        // second ask (a memo hit) returns them unchanged.
        {
          std::lock_guard<std::mutex> lock(side.memo->mu);
          auto it = side.memo->hashes.find({node, levels});
          ASSERT_NE(it, side.memo->hashes.end())
              << "depth " << node.depth << " prefix " << node.prefix;
          EXPECT_EQ(it->second, fresh);
        }
        EXPECT_EQ(reconcile_internal::MemoDescendantHashes(side, node, levels),
                  fresh);
        // And each descendant's hash is that node's NodeHash.
        for (uint64_t idx = 0; idx < fresh.size(); ++idx) {
          EXPECT_EQ(fresh[idx],
                    NodeHash(side, reconcile_internal::Descendant(
                                       node, levels, idx)));
        }
        ++descended;
      }
    }
  }
  EXPECT_GT(descended, 16u);
  EXPECT_LE(side.memo->hashes.size(), side.entries.size());
}

TEST(TrieMemo, WarmMemoRepliesEqualAColdSide) {
  // Every client's walk over a side whose memo earlier walks filled must
  // move exactly the bytes of the same walk over a freshly built side.
  const MemoFixture fx;
  const TrieSide shared = reconcile_internal::BuildSide(fx.server);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < fx.clients.size(); ++c) {
      const TrieSide cold = reconcile_internal::BuildSide(fx.server);
      const WalkTranscript want = Walk(fx.clients[c], cold);
      const WalkTranscript got = Walk(fx.clients[c], shared);
      EXPECT_EQ(got.asks, want.asks) << "pass " << pass << " client " << c;
      EXPECT_EQ(got.replies, want.replies)
          << "pass " << pass << " client " << c;
    }
  }
}

TEST(TrieMemo, ConcurrentServersOnOneSideReplyIdentically) {
  // Four threads walk one shared side at once, each through its own
  // server half, so they race to fill the memo for the same nodes. Each
  // walk's replies must be byte-identical to the same walk run alone
  // over a side of its own. (Runs under TSan in CI's par job.)
  const MemoFixture fx;
  std::vector<WalkTranscript> want;
  for (const Manifest& client : fx.clients) {
    const TrieSide alone = reconcile_internal::BuildSide(fx.server);
    want.push_back(Walk(client, alone));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const TrieSide shared = reconcile_internal::BuildSide(fx.server);
    std::vector<std::vector<WalkTranscript>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Every thread walks every client, starting at a different one.
        for (size_t k = 0; k < fx.clients.size(); ++k) {
          const size_t c = (t + k) % fx.clients.size();
          got[t].push_back(Walk(fx.clients[c], shared));
        }
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      for (size_t k = 0; k < fx.clients.size(); ++k) {
        const size_t c = (t + k) % fx.clients.size();
        EXPECT_EQ(got[t][k].replies, want[c].replies)
            << "round " << round << " thread " << t << " client " << c;
      }
    }
  }
}

}  // namespace
}  // namespace fsx
