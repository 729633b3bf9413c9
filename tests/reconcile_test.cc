#include <gtest/gtest.h>

#include <algorithm>

#include "fsync/reconcile/manifest.h"
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

}  // namespace
}  // namespace fsx
