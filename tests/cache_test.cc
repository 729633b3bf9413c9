// Edge cases of the content-addressed signature/delta cache
// (fsync/cache/): LRU eviction under tight byte budgets, cross-entry
// block dedup, config-digest mismatch bypass, stale-entry invalidation
// after a file's content changes, and concurrent sessions sharing one
// cache (run under TSAN in CI via the `par` label). Wire-level
// equivalence of cached and uncached runs is pinned separately in
// tests/cache_conformance_test.cc.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fsync/cache/dedup_store.h"
#include "fsync/cache/sync_cache.h"
#include "fsync/core/broadcast.h"
#include "fsync/core/collection.h"
#include "fsync/core/session.h"
#include "fsync/testing/corpus.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

Bytes FilledPayload(size_t size, uint8_t tag) {
  // The (i >> 12) term keeps consecutive 4 KiB dedup blocks distinct —
  // tag + i * 131 alone repeats with period 256, which divides the block
  // size, so every block of a payload would self-dedup.
  Bytes b(size);
  for (size_t i = 0; i < size; ++i) {
    b[i] = static_cast<uint8_t>(tag + i * 131 + (i >> 12) * 57);
  }
  return b;
}

cache::CacheKey KeyN(uint64_t n) {
  std::array<uint8_t, 16> fp{};
  fp[0] = static_cast<uint8_t>(n);
  fp[1] = static_cast<uint8_t>(n >> 8);
  return cache::ContentKey(fp, n);
}

TEST(DedupStore, RoundTripsAndRefcounts) {
  cache::DedupStore store;
  Bytes payload = FilledPayload(10000, 7);  // spans multiple 4K blocks
  cache::BlockRef ref = store.Insert(payload);
  EXPECT_EQ(ref.size, payload.size());
  EXPECT_EQ(store.Materialize(ref), payload);
  EXPECT_EQ(store.stored_bytes(), payload.size());

  // The same bytes under a second reference cost nothing extra.
  cache::BlockRef ref2 = store.Insert(payload);
  EXPECT_EQ(store.stored_bytes(), payload.size());
  EXPECT_EQ(store.dedup_bytes_saved(), payload.size());

  store.Release(ref);
  EXPECT_EQ(store.Materialize(ref2), payload);  // still referenced
  store.Release(ref2);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.stored_blocks(), 0u);
}

TEST(DedupStore, SharedBlocksAcrossDifferentPayloads) {
  cache::DedupStore store;
  // Two payloads sharing their (block-aligned) first 8 KiB.
  Bytes a = FilledPayload(12 * 1024, 3);
  Bytes b = a;
  for (size_t i = 8 * 1024; i < b.size(); ++i) {
    b[i] ^= 0xFF;
  }
  cache::BlockRef ra = store.Insert(a);
  cache::BlockRef rb = store.Insert(b);
  EXPECT_EQ(store.dedup_bytes_saved(), 8 * 1024u);
  EXPECT_EQ(store.Materialize(ra), a);
  EXPECT_EQ(store.Materialize(rb), b);
}

TEST(SyncCache, HitReturnsPayloadMetaAndComputeNs) {
  cache::SyncCache cache;
  Bytes payload = FilledPayload(600, 1);
  cache::SyncCache::Meta meta{1, 22, 333, 4444};
  EXPECT_FALSE(cache.Get(KeyN(1)).has_value());
  cache.Put(KeyN(1), payload, meta, /*compute_ns=*/777);

  auto hit = cache.Get(KeyN(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->payload, payload);
  EXPECT_EQ(hit->meta, meta);
  EXPECT_EQ(hit->compute_ns, 777u);

  cache::CacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.bytes_saved, payload.size());
  EXPECT_EQ(s.cpu_saved_ns, 777u);
}

TEST(SyncCache, ObserverSeesCacheEvents) {
  cache::SyncCache cache;
  obs::SyncObserver obs;
  Bytes payload = FilledPayload(256, 9);
  EXPECT_FALSE(cache.Get(KeyN(5), &obs).has_value());
  cache.Put(KeyN(5), payload, {}, 1000, &obs);
  EXPECT_TRUE(cache.Get(KeyN(5), &obs).has_value());
  EXPECT_EQ(obs.event_count(obs::Event::kCacheMiss), 1u);
  EXPECT_EQ(obs.event_count(obs::Event::kCacheHit), 1u);
  EXPECT_EQ(obs.event_count(obs::Event::kCacheBytesSaved), payload.size());
  EXPECT_EQ(obs.event_count(obs::Event::kCacheCpuSavedNs), 1000u);
}

TEST(SyncCache, LruEvictionUnderTightBudget) {
  // Budget fits roughly three 8 KiB entries (plus per-entry overhead).
  cache::SyncCache cache(/*max_bytes=*/3 * 9 * 1024);
  obs::SyncObserver obs;
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Put(KeyN(i), FilledPayload(8 * 1024, static_cast<uint8_t>(i)),
              {}, 0, &obs);
  }
  cache::CacheStats s = cache.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes_used, cache.max_bytes());
  EXPECT_LT(s.entries, 8u);
  EXPECT_EQ(obs.event_count(obs::Event::kCacheEviction), s.evictions);
  // Strict LRU: the oldest entries are gone, the newest survive.
  EXPECT_FALSE(cache.Get(KeyN(0)).has_value());
  EXPECT_TRUE(cache.Get(KeyN(7)).has_value());
}

TEST(SyncCache, LruRecencyRefreshOnGet) {
  cache::SyncCache cache(/*max_bytes=*/3 * 9 * 1024);
  cache.Put(KeyN(0), FilledPayload(8 * 1024, 0), {}, 0);
  cache.Put(KeyN(1), FilledPayload(8 * 1024, 1), {}, 0);
  cache.Put(KeyN(2), FilledPayload(8 * 1024, 2), {}, 0);
  // Touch the oldest, then overflow: the untouched middle entry goes.
  EXPECT_TRUE(cache.Get(KeyN(0)).has_value());
  cache.Put(KeyN(3), FilledPayload(8 * 1024, 3), {}, 0);
  EXPECT_TRUE(cache.Get(KeyN(0)).has_value());
  EXPECT_FALSE(cache.Get(KeyN(1)).has_value());
}

TEST(SyncCache, IdenticalPayloadsDedupAcrossEntries) {
  cache::SyncCache cache;
  Bytes payload = FilledPayload(16 * 1024, 42);
  cache.Put(KeyN(1), payload, {}, 0);
  cache.Put(KeyN(2), payload, {}, 0);  // different key, same bytes
  cache::CacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.dedup_bytes_saved, payload.size());
  ASSERT_TRUE(cache.Get(KeyN(1)).has_value());
  ASSERT_TRUE(cache.Get(KeyN(2)).has_value());
}

TEST(SyncCache, KeyDomainsNeverCollide) {
  std::array<uint8_t, 16> fp{};
  fp[3] = 7;
  cache::SyncCache cache;
  cache.Put(cache::SignatureKey(fp, 1, 2), FilledPayload(64, 1));
  cache.Put(cache::ContentKey(fp, 1), FilledPayload(64, 2));
  cache.Put(cache::TranscriptKey(fp, 2, 1, 0), FilledPayload(64, 3));
  cache.Put(cache::DeltaKey(fp, fp, 2), FilledPayload(64, 4));
  EXPECT_EQ(cache.Stats().entries, 4u);
  EXPECT_EQ(cache.Get(cache::SignatureKey(fp, 1, 2))->payload,
            FilledPayload(64, 1));
  EXPECT_EQ(cache.Get(cache::ContentKey(fp, 1))->payload,
            FilledPayload(64, 2));
}

// --- Session-level behavior -------------------------------------------

FileSyncResult MustSync(ByteSpan f_old, ByteSpan f_new,
                        const SyncConfig& config, cache::SyncCache* cache,
                        obs::SyncObserver* obs = nullptr) {
  SimulatedChannel channel;
  auto r = SynchronizeFile(f_old, f_new, config, channel, obs, cache);
  EXPECT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->reconstructed, Bytes(f_new.begin(), f_new.end()));
  return std::move(r).value();
}

TEST(SessionCache, FanOutServesRepeatsFromCache) {
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, 11);
  SyncConfig config;
  cache::SyncCache cache;
  MustSync(pair.f_old, pair.f_new, config, &cache);
  cache::CacheStats cold = cache.Stats();
  EXPECT_GT(cold.insertions, 0u);
  EXPECT_EQ(cold.hits, 0u);

  obs::SyncObserver obs;
  FileSyncResult warm =
      MustSync(pair.f_old, pair.f_new, config, &cache, &obs);
  cache::CacheStats stats = cache.Stats();
  // Every server response of the repeat session came from the cache.
  EXPECT_EQ(stats.misses, cold.misses);
  EXPECT_EQ(stats.insertions, cold.insertions);
  EXPECT_EQ(stats.hits, cold.insertions);
  EXPECT_EQ(obs.event_count(obs::Event::kCacheHit), cold.insertions);
  EXPECT_GT(obs.event_count(obs::Event::kCacheBytesSaved), 0u);
  // The warm session's live server compute collapses to (at most) the
  // replay machinery; it must not re-run signature/delta computation.
  EXPECT_GT(warm.delta_bytes, 0u);
}

TEST(SessionCache, ConfigDigestMismatchBypassesEntries) {
  CorpusPair pair = MakeCorpusPair(CorpusShape::kDispersedEdits, 13);
  SyncConfig a;
  SyncConfig b;
  b.start_block_size = a.start_block_size * 2;  // wire-affecting change
  ASSERT_NE(ConfigWireDigest(a), ConfigWireDigest(b));

  cache::SyncCache cache;
  MustSync(pair.f_old, pair.f_new, a, &cache);
  cache::CacheStats after_a = cache.Stats();
  MustSync(pair.f_old, pair.f_new, b, &cache);
  cache::CacheStats after_b = cache.Stats();
  // The config-B session found nothing reusable: zero new hits, only new
  // insertions under the new digest (old entries were never served).
  EXPECT_EQ(after_b.hits, after_a.hits);
  EXPECT_GT(after_b.insertions, after_a.insertions);
}

TEST(SessionCache, StaleEntriesInvalidatedByContentChange) {
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, 17);
  SyncConfig config;
  cache::SyncCache cache;
  MustSync(pair.f_old, pair.f_new, config, &cache);
  cache::CacheStats warm = cache.Stats();

  // The server file changes (next crawl): its fingerprint changes, so
  // every key derived from the old content is simply never looked up
  // again — the new sync must be all misses and still correct.
  Bytes changed = pair.f_new;
  changed[changed.size() / 2] ^= 0x5A;
  ASSERT_NE(FileFingerprint(changed), FileFingerprint(pair.f_new));
  MustSync(pair.f_old, changed, config, &cache);
  cache::CacheStats after = cache.Stats();
  EXPECT_EQ(after.hits, warm.hits);
  EXPECT_GT(after.insertions, warm.insertions);

  // The unchanged pair's entries still serve.
  MustSync(pair.f_old, pair.f_new, config, &cache);
  EXPECT_GT(cache.Stats().hits, after.hits);
}

TEST(SessionCache, TightBudgetStaysCorrectUnderEviction) {
  // A budget far below one session's working set: every session thrashes
  // the cache, but results and wire behavior must stay correct.
  cache::SyncCache cache(/*max_bytes=*/2 * 1024);
  SyncConfig config;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CorpusPair pair = MakeCorpusPair(CorpusShape::kBlockMove, seed);
    MustSync(pair.f_old, pair.f_new, config, &cache);
    MustSync(pair.f_old, pair.f_new, config, &cache);
  }
  cache::CacheStats s = cache.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes_used, cache.max_bytes());
}

TEST(SessionCache, ConcurrentSessionsShareOneCache) {
  // Many clients, one cache, in parallel (the fan-out deployment shape);
  // TSAN runs this via the `par` label. Mixed pairs make some threads
  // insert while others hit.
  constexpr int kThreads = 8;
  std::vector<CorpusPair> pairs;
  pairs.push_back(MakeCorpusPair(CorpusShape::kClusteredEdits, 23));
  pairs.push_back(MakeCorpusPair(CorpusShape::kDispersedEdits, 23));
  SyncConfig config;
  cache::SyncCache cache;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        const CorpusPair& pair = pairs[(t + rep) % pairs.size()];
        SimulatedChannel channel;
        auto r = SynchronizeFile(pair.f_old, pair.f_new, config, channel,
                                 nullptr, &cache);
        if (!r.ok() || r->reconstructed != pair.f_new) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  cache::CacheStats s = cache.Stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.insertions, 0u);
}

// --- Broadcast and collection paths -----------------------------------

TEST(BroadcastCache, CastAndDeltaMemoized) {
  CorpusPair pair = MakeCorpusPair(CorpusShape::kWebPageEdit, 31);
  HashCastConfig config;
  cache::SyncCache cache;

  auto cast1 = BuildHashCastCached(pair.f_new, config, &cache);
  auto cast2 = BuildHashCastCached(pair.f_new, config, &cache);
  ASSERT_TRUE(cast1.ok() && cast2.ok());
  EXPECT_EQ(*cast1, *cast2);
  auto uncached = BuildHashCast(pair.f_new, config);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(*cast1, *uncached);
  EXPECT_EQ(cache.Stats().hits, 1u);

  auto map = ApplyHashCast(pair.f_old, *cast1);
  ASSERT_TRUE(map.ok());
  Bytes request = EncodeCastRequest(*map);
  auto delta1 = MakeCastDeltaCached(pair.f_new, request, config, &cache);
  auto delta2 = MakeCastDeltaCached(pair.f_new, request, config, &cache);
  auto delta_ref = MakeCastDelta(pair.f_new, request, config);
  ASSERT_TRUE(delta1.ok() && delta2.ok() && delta_ref.ok());
  EXPECT_EQ(*delta1, *delta2);
  EXPECT_EQ(*delta1, *delta_ref);
  EXPECT_EQ(cache.Stats().hits, 2u);

  auto got = ApplyCastDelta(pair.f_old, *map, *delta1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, pair.f_new);
}

TEST(CollectionCache, TreeDriverSharesCacheAcrossClients) {
  // Two "clients" with the same outdated tree sync against one server
  // snapshot through one shared cache: the second sync's sessions and
  // small-file bundle are served from it.
  Collection server;
  CorpusPair big1 = MakeCorpusPair(CorpusShape::kClusteredEdits, 41);
  CorpusPair big2 = MakeCorpusPair(CorpusShape::kBlockMove, 43);
  Collection client;
  client["src/a.cc"] = big1.f_old;
  client["src/b.cc"] = big2.f_old;
  client["docs/readme"] = ToBytes("old small file\n");
  server["src/a.cc"] = big1.f_new;
  server["src/b.cc"] = big2.f_new;
  server["docs/readme"] = ToBytes("new small file contents\n");

  cache::SyncCache cache;
  TreeSyncParams params;
  params.cache = &cache;
  for (int client_no = 0; client_no < 2; ++client_no) {
    SimulatedChannel channel;
    auto r = SyncCollectionTree(client, server, params, channel);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r->reconstructed, server);
  }
  cache::CacheStats s = cache.Stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.bytes_saved, 0u);
}

}  // namespace
}  // namespace fsx
