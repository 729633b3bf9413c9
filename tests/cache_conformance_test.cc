// Pins the cache determinism contract: server-side caching is pure
// memoization, so a session running against a cold cache, a warm cache,
// or no cache at all must produce wire traffic — every message, byte for
// byte, in order — and results identical to the uncached run. Covers
// every cached server path: the single-file session protocol across the
// full corpus, the tree collection driver with every stale file in a
// session and with its small-file bundle, and the broadcast hash-cast
// path. Labeled `cache` and `conformance`.
#include <gtest/gtest.h>

#include <vector>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/broadcast.h"
#include "fsync/core/collection.h"
#include "fsync/core/session.h"
#include "fsync/testing/corpus.h"
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

TEST(CacheConformance, SessionWireBitIdenticalColdWarmUncached) {
  const uint64_t seed = SeedFromEnv(59);
  SyncConfig config;
  for (CorpusShape shape : AllCorpusShapes()) {
    CorpusPair pair = MakeCorpusPair(shape, seed);
    SCOPED_TRACE(pair.Label() + " FSX_SEED=" + std::to_string(seed));

    SimulatedChannel uncached;
    uncached.EnableTranscript();
    auto r0 = SynchronizeFile(pair.f_old, pair.f_new, config, uncached);

    cache::SyncCache cache;
    SimulatedChannel cold;
    cold.EnableTranscript();
    auto r1 =
        SynchronizeFile(pair.f_old, pair.f_new, config, cold, nullptr,
                        &cache);
    SimulatedChannel warm;
    warm.EnableTranscript();
    auto r2 =
        SynchronizeFile(pair.f_old, pair.f_new, config, warm, nullptr,
                        &cache);

    ASSERT_EQ(r0.ok(), r1.ok());
    ASSERT_EQ(r0.ok(), r2.ok());
    if (!r0.ok()) {
      continue;
    }
    EXPECT_EQ(r0->reconstructed, r1->reconstructed);
    EXPECT_EQ(r0->reconstructed, r2->reconstructed);
    EXPECT_EQ(r0->stats.total_bytes(), r1->stats.total_bytes());
    EXPECT_EQ(r0->stats.total_bytes(), r2->stats.total_bytes());
    EXPECT_EQ(r0->rounds, r2->rounds);
    EXPECT_EQ(r0->delta_bytes, r2->delta_bytes);
    EXPECT_EQ(r0->fallback, r2->fallback);
    EXPECT_EQ(r0->degradation_level, r2->degradation_level);
    ExpectSameTranscript(uncached, cold);
    ExpectSameTranscript(uncached, warm);
  }
}

TEST(CacheConformance, TightBudgetEvictionKeepsWireIdentical) {
  // A cache too small to hold one session's entries evicts mid-session;
  // the wire must not notice.
  const uint64_t seed = SeedFromEnv(61);
  SyncConfig config;
  cache::SyncCache tiny(/*max_bytes=*/1024);
  for (CorpusShape shape :
       {CorpusShape::kClusteredEdits, CorpusShape::kBlockMove}) {
    CorpusPair pair = MakeCorpusPair(shape, seed);
    SCOPED_TRACE(pair.Label());
    SimulatedChannel uncached;
    uncached.EnableTranscript();
    auto r0 = SynchronizeFile(pair.f_old, pair.f_new, config, uncached);
    SimulatedChannel cached;
    cached.EnableTranscript();
    auto r1 = SynchronizeFile(pair.f_old, pair.f_new, config, cached,
                              nullptr, &tiny);
    ASSERT_TRUE(r0.ok() && r1.ok());
    EXPECT_EQ(r0->reconstructed, r1->reconstructed);
    ExpectSameTranscript(uncached, cached);
  }
}

Collection ConformanceServer(uint64_t seed) {
  Collection server;
  server["a/clustered"] =
      MakeCorpusPair(CorpusShape::kClusteredEdits, seed).f_new;
  server["a/moved"] = MakeCorpusPair(CorpusShape::kBlockMove, seed).f_new;
  server["b/new-file"] =
      MakeCorpusPair(CorpusShape::kDispersedEdits, seed).f_new;
  server["b/small"] = ToBytes("tiny new contents\n");
  return server;
}

Collection ConformanceClient(uint64_t seed) {
  Collection client;
  client["a/clustered"] =
      MakeCorpusPair(CorpusShape::kClusteredEdits, seed).f_old;
  client["a/moved"] = MakeCorpusPair(CorpusShape::kBlockMove, seed).f_old;
  client["b/small"] = ToBytes("tiny old contents\n");
  client["b/stale-only"] = ToBytes("client-only file\n");
  return client;
}

// Every stale file in one multiplexed session batch (bundle threshold
// 0), so the cache serves each file's session replies.
TEST(CacheConformance, BatchedCollectionWireBitIdentical) {
  const uint64_t seed = SeedFromEnv(67);
  Collection client = ConformanceClient(seed);
  Collection server = ConformanceServer(seed);

  TreeSyncParams plain;
  plain.small_file_threshold = 0;
  SimulatedChannel uncached;
  uncached.EnableTranscript();
  auto r0 = SyncCollectionTree(client, server, plain, uncached);
  ASSERT_TRUE(r0.ok()) << r0.status().message();
  ASSERT_EQ(r0->files_small, 0u);

  cache::SyncCache cache;
  TreeSyncParams with_cache = plain;
  with_cache.cache = &cache;
  for (int client_no = 0; client_no < 2; ++client_no) {
    SCOPED_TRACE(client_no == 0 ? "cold" : "warm");
    SimulatedChannel cached;
    cached.EnableTranscript();
    auto r1 = SyncCollectionTree(client, server, with_cache, cached);
    ASSERT_TRUE(r1.ok()) << r1.status().message();
    EXPECT_EQ(r0->reconstructed, r1->reconstructed);
    EXPECT_EQ(r0->stats.total_bytes(), r1->stats.total_bytes());
    ExpectSameTranscript(uncached, cached);
  }
  EXPECT_GT(cache.Stats().hits, 0u);
}

TEST(CacheConformance, TreeCollectionWireBitIdentical) {
  const uint64_t seed = SeedFromEnv(71);
  Collection client = ConformanceClient(seed);
  Collection server = ConformanceServer(seed);

  TreeSyncParams plain;
  SimulatedChannel uncached;
  uncached.EnableTranscript();
  auto r0 = SyncCollectionTree(client, server, plain, uncached);
  ASSERT_TRUE(r0.ok()) << r0.status().message();

  cache::SyncCache cache;
  TreeSyncParams with_cache;
  with_cache.cache = &cache;
  for (int client_no = 0; client_no < 2; ++client_no) {
    SCOPED_TRACE(client_no == 0 ? "cold" : "warm");
    SimulatedChannel cached;
    cached.EnableTranscript();
    auto r1 = SyncCollectionTree(client, server, with_cache, cached);
    ASSERT_TRUE(r1.ok()) << r1.status().message();
    EXPECT_EQ(r0->reconstructed, r1->reconstructed);
    EXPECT_EQ(r0->stats.total_bytes(), r1->stats.total_bytes());
    ExpectSameTranscript(uncached, cached);
  }
  EXPECT_GT(cache.Stats().hits, 0u);
}

TEST(CacheConformance, HashCastBytesIdenticalColdWarmUncached) {
  const uint64_t seed = SeedFromEnv(73);
  HashCastConfig config;
  for (CorpusShape shape :
       {CorpusShape::kWebPageEdit, CorpusShape::kClusteredEdits,
        CorpusShape::kEmptyOld}) {
    CorpusPair pair = MakeCorpusPair(shape, seed);
    SCOPED_TRACE(pair.Label());
    auto plain_cast = BuildHashCast(pair.f_new, config);
    ASSERT_TRUE(plain_cast.ok());

    cache::SyncCache cache;
    for (int round = 0; round < 2; ++round) {  // cold, then warm
      auto cast = BuildHashCastCached(pair.f_new, config, &cache);
      ASSERT_TRUE(cast.ok());
      EXPECT_EQ(*cast, *plain_cast);
    }

    auto map = ApplyHashCast(pair.f_old, *plain_cast);
    ASSERT_TRUE(map.ok());
    Bytes request = EncodeCastRequest(*map);
    auto plain_delta = MakeCastDelta(pair.f_new, request, config);
    ASSERT_TRUE(plain_delta.ok());
    for (int round = 0; round < 2; ++round) {
      auto delta = MakeCastDeltaCached(pair.f_new, request, config, &cache);
      ASSERT_TRUE(delta.ok());
      EXPECT_EQ(*delta, *plain_delta);
    }
  }
}

}  // namespace
}  // namespace fsx
