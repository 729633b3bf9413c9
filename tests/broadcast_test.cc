#include <gtest/gtest.h>

#include "fsync/core/broadcast.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

// End-to-end broadcast flow for one client.
StatusOr<Bytes> RunBroadcast(ByteSpan f_old, ByteSpan f_new,
                             const HashCastConfig& config,
                             uint64_t* cast_bytes = nullptr,
                             uint64_t* delta_bytes = nullptr,
                             double* coverage = nullptr) {
  FSYNC_ASSIGN_OR_RETURN(Bytes cast, BuildHashCast(f_new, config));
  if (cast_bytes != nullptr) {
    *cast_bytes = cast.size();
  }
  FSYNC_ASSIGN_OR_RETURN(CastMap map, ApplyHashCast(f_old, cast));
  if (coverage != nullptr) {
    *coverage = map.CoveredFraction();
  }
  Bytes request = EncodeCastRequest(map);
  FSYNC_ASSIGN_OR_RETURN(Bytes delta, MakeCastDelta(f_new, request, config));
  if (delta_bytes != nullptr) {
    *delta_bytes = delta.size();
  }
  return ApplyCastDelta(f_old, map, delta);
}

TEST(Broadcast, SingleClientReconstructs) {
  Rng rng(1);
  Bytes f_old = SynthSourceFile(rng, 80000);
  EditProfile ep;
  ep.num_edits = 10;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  HashCastConfig config;
  double coverage = 0;
  auto r = RunBroadcast(f_old, f_new, config, nullptr, nullptr, &coverage);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, f_new);
  EXPECT_GT(coverage, 0.6);
}

TEST(Broadcast, ManyClientsOneCast) {
  // The whole point: one cast serves clients at different staleness.
  Rng rng(2);
  Bytes v0 = SynthSourceFile(rng, 60000);
  EditProfile ep;
  ep.num_edits = 6;
  Bytes v1 = ApplyEdits(v0, ep, rng);
  Bytes v2 = ApplyEdits(v1, ep, rng);
  Bytes v3 = ApplyEdits(v2, ep, rng);

  HashCastConfig config;
  auto cast = BuildHashCast(v3, config);
  ASSERT_TRUE(cast.ok());
  for (const Bytes* old_version : {&v0, &v1, &v2}) {
    auto map = ApplyHashCast(*old_version, *cast);
    ASSERT_TRUE(map.ok());
    auto delta = MakeCastDelta(v3, EncodeCastRequest(*map), config);
    ASSERT_TRUE(delta.ok());
    auto rebuilt = ApplyCastDelta(*old_version, *map, *delta);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(*rebuilt, v3);
  }
}

TEST(Broadcast, FresherClientsGetSmallerDeltas) {
  Rng rng(3);
  Bytes v0 = SynthSourceFile(rng, 100000);
  EditProfile ep;
  ep.num_edits = 12;
  Bytes v1 = ApplyEdits(v0, ep, rng);
  Bytes v2 = ApplyEdits(v1, ep, rng);

  HashCastConfig config;
  uint64_t delta_stale = 0;
  uint64_t delta_fresh = 0;
  ASSERT_TRUE(
      RunBroadcast(v0, v2, config, nullptr, &delta_stale, nullptr).ok());
  ASSERT_TRUE(
      RunBroadcast(v1, v2, config, nullptr, &delta_fresh, nullptr).ok());
  EXPECT_LE(delta_fresh, delta_stale);
}

TEST(Broadcast, EmptyAndUnrelatedClients) {
  Rng rng(4);
  Bytes f_new = SynthSourceFile(rng, 30000);
  HashCastConfig config;
  // Client with nothing: cast matches nothing, delta is ~ compressed file.
  auto r = RunBroadcast({}, f_new, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, f_new);
  // Client with unrelated content.
  Bytes junk = rng.RandomBytes(30000);
  auto r2 = RunBroadcast(junk, f_new, config);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, f_new);
}

TEST(Broadcast, CastCostIsOneTimeAndBounded) {
  Rng rng(5);
  Bytes f_new = SynthSourceFile(rng, 200000);
  HashCastConfig config;
  auto cast = BuildHashCast(f_new, config);
  ASSERT_TRUE(cast.ok());
  // Full tree of (24+16)-bit hashes down to 64-byte blocks is ~2*n/64
  // hashes: the cast must stay a modest fraction of the file.
  EXPECT_LT(cast->size(), f_new.size() / 2);
  EXPECT_GT(cast->size(), f_new.size() / 50);
}

TEST(Broadcast, CorruptCastRejectedCleanly) {
  Rng rng(6);
  Bytes f_new = SynthSourceFile(rng, 20000);
  Bytes f_old = f_new;
  HashCastConfig config;
  auto cast = BuildHashCast(f_new, config);
  ASSERT_TRUE(cast.ok());
  for (size_t cut : {size_t{0}, size_t{4}, cast->size() / 2}) {
    Bytes truncated(cast->begin(), cast->begin() + cut);
    auto map = ApplyHashCast(f_old, truncated);
    EXPECT_FALSE(map.ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(BuildHashCast(f_new, HashCastConfig{.start_block_size = 3})
                   .ok());
}

TEST(Broadcast, BadRequestRejected) {
  Rng rng(7);
  Bytes f_new = SynthSourceFile(rng, 10000);
  HashCastConfig config;
  Bytes junk = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                0xFF};
  EXPECT_FALSE(MakeCastDelta(f_new, junk, config).ok());
}

TEST(Broadcast, RequestRangesThatWrapAreDataLoss) {
  Rng rng(7);
  Bytes f_new = SynthSourceFile(rng, 10000);
  HashCastConfig config;
  constexpr uint64_t kMax = ~uint64_t{0};
  // Each request's gap or length wraps the position past 2^64: a huge
  // gap, a huge length, and a gap that lands before the previous range.
  const std::vector<std::vector<CastMap::Range>> requests = {
      {{.begin = kMax, .length = 2}},
      {{.begin = 1, .length = kMax}},
      {{.begin = 10, .length = 10}, {.begin = 5, .length = 2}},
  };
  for (const auto& ranges : requests) {
    CastMap map;
    map.ranges = ranges;
    auto delta = MakeCastDelta(f_new, EncodeCastRequest(map), config);
    ASSERT_FALSE(delta.ok());
    EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss)
        << delta.status().ToString();
  }
}

class BroadcastFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BroadcastFuzz, AlwaysReconstructsOrFailsCleanly) {
  Rng rng(GetParam());
  Bytes f_old = SynthSourceFile(rng, 1 + rng.Uniform(50000));
  EditProfile ep;
  ep.num_edits = static_cast<int>(rng.Uniform(25));
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  HashCastConfig config;
  config.start_block_size = 512u << rng.Uniform(4);
  config.min_block_size = 32u << rng.Uniform(3);
  config.weak_bits = 16 + static_cast<int>(rng.Uniform(17));
  config.strong_bits = 8 + static_cast<int>(rng.Uniform(25));
  auto r = RunBroadcast(f_old, f_new, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, f_new);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastFuzz,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace fsx
