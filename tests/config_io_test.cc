#include <gtest/gtest.h>

#include "fsync/core/config_io.h"
#include "fsync/core/session.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

TEST(ConfigIo, ParsesGlobalKeys) {
  auto c = ParseSyncConfig(
      "# a comment\n"
      "start_block_size = 4096\n"
      "min_block_size = 128\n"
      "use_continuation = false\n"
      "delta_codec = vcdiff\n"
      "verify_bits = 20\n"
      "max_roundtrips = 5\n");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->start_block_size, 4096u);
  EXPECT_EQ(c->min_block_size, 128u);
  EXPECT_FALSE(c->use_continuation);
  EXPECT_EQ(c->delta_codec, DeltaCodec::kVcdiff);
  EXPECT_EQ(c->verify.verify_bits, 20);
  EXPECT_EQ(c->max_roundtrips, 5);
}

TEST(ConfigIo, ParsesRoundSections) {
  auto c = ParseSyncConfig(
      "group_size = 8\n"
      "[round 0]\n"
      "verify_bits = 24\n"
      "[round 3]\n"
      "group_size = 16\n"
      "continuation_bits = 4\n");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->round_overrides.size(), 4u);
  EXPECT_EQ(c->round_overrides[0].verify_bits, 24);
  EXPECT_EQ(c->round_overrides[0].group_size, -1);
  EXPECT_EQ(c->round_overrides[3].group_size, 16);
  EXPECT_EQ(c->round_overrides[3].continuation_bits, 4);

  EXPECT_EQ(EffectiveVerify(*c, 0).verify_bits, 24);
  EXPECT_EQ(EffectiveVerify(*c, 1).verify_bits, c->verify.verify_bits);
  EXPECT_EQ(EffectiveVerify(*c, 3).group_size, 16);
  EXPECT_EQ(EffectiveContinuationBits(*c, 3), 4);
  EXPECT_EQ(EffectiveContinuationBits(*c, 9), c->continuation_bits);
}

TEST(ConfigIo, RejectsBadInput) {
  EXPECT_FALSE(ParseSyncConfig("unknown_key = 1\n").ok());
  EXPECT_FALSE(ParseSyncConfig("start_block_size = banana\n").ok());
  EXPECT_FALSE(ParseSyncConfig("use_continuation = maybe\n").ok());
  EXPECT_FALSE(ParseSyncConfig("[round -1]\nverify_bits = 1\n").ok());
  EXPECT_FALSE(ParseSyncConfig("[round 2]\nstart_block_size = 1\n").ok());
  EXPECT_FALSE(ParseSyncConfig("just some text\n").ok());
  EXPECT_FALSE(ParseSyncConfig("delta_codec = gzip\n").ok());
}

TEST(ConfigIo, RejectsConfigsTheProtocolCannotRun) {
  // Well-formed text, but a session with these settings never terminates.
  EXPECT_EQ(ParseSyncConfig("start_block_size = 0\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSyncConfig("start_block_size = 3000\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseSyncConfig("min_continuation_block = 0\n").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSyncConfig("verify_bits = 0\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfigIo, SerializationRoundTrips) {
  SyncConfig config;
  config.start_block_size = 8192;
  config.min_continuation_block = 8;
  config.continuation_first = true;
  config.delta_codec = DeltaCodec::kBsdiff;
  config.verify.group_size = 12;
  config.round_overrides.resize(3);
  config.round_overrides[1].verify_bits = 10;
  config.round_overrides[2].max_batches = 3;

  auto back = ParseSyncConfig(SerializeSyncConfig(config));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->start_block_size, config.start_block_size);
  EXPECT_EQ(back->min_continuation_block, config.min_continuation_block);
  EXPECT_EQ(back->continuation_first, config.continuation_first);
  EXPECT_EQ(back->delta_codec, config.delta_codec);
  EXPECT_EQ(back->verify.group_size, config.verify.group_size);
  ASSERT_EQ(back->round_overrides.size(), 3u);
  EXPECT_EQ(back->round_overrides[1].verify_bits, 10);
  EXPECT_EQ(back->round_overrides[2].max_batches, 3);
}

TEST(ConfigIo, PerRoundScheduleDrivesTheProtocol) {
  // A schedule that spends more verification bits on the first (large,
  // high-stakes) rounds and relaxes later must still reconstruct, and
  // both endpoints must agree on the wire layout.
  Rng rng(1);
  Bytes f_old = SynthSourceFile(rng, 60000);
  EditProfile ep;
  ep.num_edits = 12;
  Bytes f_new = ApplyEdits(f_old, ep, rng);

  auto config = ParseSyncConfig(
      "verify_bits = 12\n"
      "group_size = 8\n"
      "[round 0]\n"
      "verify_bits = 24\n"
      "group_size = 2\n"
      "[round 1]\n"
      "verify_bits = 20\n"
      "[round 6]\n"
      "continuation_bits = 10\n"
      "group_size = 16\n");
  ASSERT_TRUE(config.ok());
  SimulatedChannel channel;
  auto r = SynchronizeFile(f_old, f_new, *config, channel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, f_new);
}

}  // namespace
}  // namespace fsx
