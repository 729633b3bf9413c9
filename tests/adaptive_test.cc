#include <gtest/gtest.h>

#include "fsync/core/adaptive.h"
#include "fsync/core/session.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

TEST(Adaptive, SmallFilesGetSmallStartBlocks) {
  SyncConfig small = ChooseConfig(4096, 4096);
  SyncConfig large = ChooseConfig(1 << 20, 1 << 20);
  EXPECT_LT(small.start_block_size, large.start_block_size);
  EXPECT_LE(small.min_block_size, large.min_block_size);
}

TEST(Adaptive, StartBlockIsPowerOfTwo) {
  for (uint64_t size : {100ull, 5000ull, 123456ull, 10000000ull}) {
    SyncConfig c = ChooseConfig(size, size);
    EXPECT_EQ(c.start_block_size & (c.start_block_size - 1), 0u) << size;
  }
}

TEST(Adaptive, HighLatencyCapsRoundtrips) {
  AdaptiveHints satellite;
  satellite.roundtrip_latency_sec = 1.0;
  satellite.bandwidth_bytes_per_sec = 1 << 20;
  SyncConfig c = ChooseConfig(32 * 1024, 32 * 1024, satellite);
  EXPECT_GT(c.max_roundtrips, 0);
  EXPECT_LE(c.max_roundtrips, 4);

  AdaptiveHints lan;
  lan.roundtrip_latency_sec = 0.001;
  lan.bandwidth_bytes_per_sec = 1 << 20;
  SyncConfig c2 = ChooseConfig(32 * 1024, 32 * 1024, lan);
  EXPECT_EQ(c2.max_roundtrips, 0);
}

TEST(Adaptive, AsymmetricUplinkShiftsCostDownstream) {
  AdaptiveHints adsl;
  adsl.roundtrip_latency_sec = 0.001;
  adsl.bandwidth_bytes_per_sec = 1 << 20;
  adsl.upstream_bytes_per_sec = 1 << 16;  // 16x slower up
  SyncConfig c = ChooseConfig(200000, 200000, adsl);
  SyncConfig sym = ChooseConfig(200000, 200000);
  EXPECT_GT(c.verify.group_size, sym.verify.group_size);
  EXPECT_GT(c.global_extra_bits, sym.global_extra_bits);

  // And the asymmetric config must actually reduce uplink bytes.
  Rng rng(20);
  Bytes f_old = SynthSourceFile(rng, 150000);
  EditProfile ep;
  ep.num_edits = 20;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  SimulatedChannel ch1, ch2;
  auto r_sym = SynchronizeFile(f_old, f_new, sym, ch1);
  auto r_asym = SynchronizeFile(f_old, f_new, c, ch2);
  ASSERT_TRUE(r_sym.ok());
  ASSERT_TRUE(r_asym.ok());
  EXPECT_EQ(r_asym->reconstructed, f_new);
  EXPECT_LT(r_asym->stats.client_to_server_bytes,
            r_sym->stats.client_to_server_bytes);
}

TEST(Adaptive, ChosenConfigSynchronizesCorrectly) {
  Rng rng(2);
  for (size_t size : {500u, 20000u, 200000u}) {
    Bytes f_old = SynthSourceFile(rng, size);
    EditProfile ep;
    ep.num_edits = 6;
    Bytes f_new = ApplyEdits(f_old, ep, rng);
    SyncConfig config = ChooseConfig(f_old.size(), f_new.size());
    SimulatedChannel channel;
    auto r = SynchronizeFile(f_old, f_new, config, channel);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->reconstructed, f_new) << "size=" << size;
  }
}

}  // namespace
}  // namespace fsx
