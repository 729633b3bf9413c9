// Graceful-degradation ladder tests. Deliberately weak verification
// hashes let wrong blocks into the map, so the delta phase reconstructs
// a file that fails the fingerprint check — exactly the failure the
// ladder exists for. Rung 2 (region repair) must fix it by fetching
// only the bad regions' literals; with repair disabled, rung 3 (full
// transfer) must. In every case the result is byte-exact: degradation
// changes cost, never correctness.
#include <gtest/gtest.h>

#include "fsync/core/collection.h"
#include "fsync/core/session.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/testing/corpus.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

// Verification weak enough that false matches survive to the delta
// phase (a `bits`-bit hash accepts a wrong candidate with probability
// 2^-bits). Small `bits` floods the map with errors (driving the ladder
// to the full-transfer rung); moderate `bits` admits just a few, the
// region-repair sweet spot. Fine repair regions keep the bad fraction
// under the full-transfer threshold.
SyncConfig WeakVerifyConfig(int bits) {
  SyncConfig config;
  config.verify.verify_bits = bits;
  config.verify.group_size = 1;
  config.verify.max_batches = 1;
  config.verify.continuation_group_size = 1;
  config.verify.adaptive_groups = false;
  config.global_extra_bits = 0;
  config.continuation_bits = 2;
  config.repair.region_size = 1024;
  return config;
}

struct LadderTally {
  int runs = 0;
  int level1 = 0;  // region repair finished the session
  int level2 = 0;  // full transfer finished the session
  uint64_t repaired_regions = 0;
};

void SweepSeeds(const SyncConfig& config, int seeds,
                bool expect_full_when_degraded, LadderTally& tally) {
  for (int seed = 0; seed < seeds; ++seed) {
    CorpusPair pair =
        MakeCorpusPair(CorpusShape::kDispersedEdits, 9000 + seed);
    SimulatedChannel channel;
    obs::SyncObserver obs;
    auto r = SynchronizeFile(pair.f_old, pair.f_new, config, channel, &obs);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    // The ladder may change the cost, never the bytes.
    EXPECT_EQ(r->reconstructed, pair.f_new) << "seed " << seed;
    ++tally.runs;
    if (r->degradation_level == 1) {
      ++tally.level1;
      EXPECT_GT(r->repaired_regions, 0u) << "seed " << seed;
      EXPECT_FALSE(r->fallback) << "seed " << seed;
      EXPECT_EQ(obs.event_count(obs::Event::kRepairRegion),
                r->repaired_regions)
          << "seed " << seed;
      tally.repaired_regions += r->repaired_regions;
    } else if (r->degradation_level == 2) {
      ++tally.level2;
      EXPECT_TRUE(r->fallback) << "seed " << seed;
      EXPECT_GE(obs.event_count(obs::Event::kFullFallback), 1u)
          << "seed " << seed;
    } else {
      EXPECT_EQ(r->degradation_level, 0) << "seed " << seed;
      EXPECT_EQ(r->repaired_regions, 0u) << "seed " << seed;
    }
    if (expect_full_when_degraded) {
      EXPECT_NE(r->degradation_level, 1)
          << "seed " << seed << ": repaired with repair disabled";
    }
  }
}

TEST(Ladder, WeakVerificationIsRepairedRegionally) {
  LadderTally tally;
  for (int bits = 1; bits <= 5; ++bits) {
    SweepSeeds(WeakVerifyConfig(bits), 8,
               /*expect_full_when_degraded=*/false, tally);
  }
  // The sweep must actually exercise the ladder, and rung 2 must catch
  // at least some sessions before the full-transfer rung.
  EXPECT_GT(tally.level1 + tally.level2, 0)
      << "weak verification never corrupted a map; the sweep is inert";
  EXPECT_GT(tally.level1, 0) << "region repair never engaged";
  EXPECT_GT(tally.repaired_regions, 0u);
}

TEST(Ladder, RepairDisabledFallsBackToFullTransfer) {
  LadderTally tally;
  for (int bits = 1; bits <= 5; ++bits) {
    SyncConfig config = WeakVerifyConfig(bits);
    config.repair.enabled = false;
    SweepSeeds(config, 8, /*expect_full_when_degraded=*/true, tally);
  }
  EXPECT_GT(tally.level2, 0)
      << "with repair disabled, degraded sessions must reach rung 3";
  EXPECT_EQ(tally.level1, 0);
}

TEST(Ladder, CleanSessionStaysOnLevelZero) {
  CorpusPair pair = MakeCorpusPair(CorpusShape::kClusteredEdits, 4);
  SyncConfig config;  // default (strong) verification
  SimulatedChannel channel;
  obs::SyncObserver obs;
  auto r = SynchronizeFile(pair.f_old, pair.f_new, config, channel, &obs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, pair.f_new);
  EXPECT_EQ(r->degradation_level, 0);
  EXPECT_EQ(r->repaired_regions, 0u);
  EXPECT_FALSE(r->fallback);
  EXPECT_EQ(obs.event_count(obs::Event::kRepairRegion), 0u);
  EXPECT_EQ(obs.event_count(obs::Event::kFullFallback), 0u);
}

// The same sweep through the multiplexed driver: one collection per
// verification width, one file per seed, every stale file in a session,
// so the broken sessions of a batch share its rung-2 and rung-3
// exchanges.
struct MultiplexTally {
  uint64_t repaired_regions = 0;
  uint64_t full_fallbacks = 0;
};

void SweepMultiplexed(bool repair_enabled, MultiplexTally& tally) {
  for (int bits = 1; bits <= 5; ++bits) {
    SyncConfig config = WeakVerifyConfig(bits);
    config.repair.enabled = repair_enabled;
    Collection client, server;
    for (int seed = 0; seed < 8; ++seed) {
      CorpusPair pair =
          MakeCorpusPair(CorpusShape::kDispersedEdits, 9000 + seed);
      const std::string name = "f" + std::to_string(seed);
      client[name] = pair.f_old;
      server[name] = pair.f_new;
    }
    SimulatedChannel channel;
    obs::SyncObserver obs;
    TreeSyncParams params;
    params.config = config;
    params.small_file_threshold = 0;  // every stale file gets a session
    auto r = SyncCollectionTree(client, server, params, channel, &obs);
    ASSERT_TRUE(r.ok()) << "bits " << bits << ": " << r.status().ToString();
    EXPECT_EQ(r->files_sessioned, server.size()) << "bits " << bits;
    EXPECT_EQ(r->reconstructed, server) << "bits " << bits;
    // Invariant 6: the observer's phase sums are the channel's stats.
    EXPECT_EQ(obs.dir_bytes(obs::Flow::kUp),
              channel.stats().client_to_server_bytes)
        << "bits " << bits;
    EXPECT_EQ(obs.dir_bytes(obs::Flow::kDown),
              channel.stats().server_to_client_bytes)
        << "bits " << bits;
    tally.repaired_regions += obs.event_count(obs::Event::kRepairRegion);
    tally.full_fallbacks += obs.event_count(obs::Event::kFullFallback);
  }
}

TEST(Ladder, MultiplexedSessionsReachRegionRepair) {
  MultiplexTally tally;
  SweepMultiplexed(/*repair_enabled=*/true, tally);
  EXPECT_GT(tally.repaired_regions, 0u) << "region repair never engaged";
}

TEST(Ladder, MultiplexedRepairDisabledOnlyFallsBack) {
  MultiplexTally tally;
  SweepMultiplexed(/*repair_enabled=*/false, tally);
  EXPECT_EQ(tally.repaired_regions, 0u);
  EXPECT_GT(tally.full_fallbacks, 0u);
}

}  // namespace
}  // namespace fsx
