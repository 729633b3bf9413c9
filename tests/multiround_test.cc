#include <gtest/gtest.h>

#include "fsync/multiround/multiround.h"
#include "fsync/rsync/rsync.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

MultiroundResult MustSync(const Bytes& f_old, const Bytes& f_new,
                          const MultiroundParams& params) {
  SimulatedChannel channel;
  auto r = MultiroundSynchronize(f_old, f_new, params, channel);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, f_new);
  return std::move(*r);
}

TEST(Multiround, UnchangedFileShortCircuits) {
  Rng rng(1);
  Bytes f = SynthSourceFile(rng, 30000);
  MultiroundParams params;
  MultiroundResult r = MustSync(f, f, params);
  EXPECT_LT(r.stats.total_bytes(), 64u);
  EXPECT_EQ(r.rounds, 0);
}

TEST(Multiround, SmallEditResolvesMostBlocks) {
  Rng rng(2);
  Bytes f_old = SynthSourceFile(rng, 100000);
  EditProfile ep;
  ep.num_edits = 5;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  MultiroundParams params;
  MultiroundResult r = MustSync(f_old, f_new, params);
  EXPECT_GT(r.matched_fraction, 0.7);
  EXPECT_LT(r.stats.total_bytes(), f_new.size() / 4);
  EXPECT_GT(r.rounds, 1);
}

TEST(Multiround, EmptyEdgeCases) {
  Rng rng(3);
  Bytes f = SynthSourceFile(rng, 10000);
  MultiroundParams params;
  EXPECT_EQ(MustSync({}, f, params).reconstructed, f);
  EXPECT_TRUE(MustSync(f, {}, params).reconstructed.empty());
  EXPECT_TRUE(MustSync({}, {}, params).reconstructed.empty());
}

TEST(Multiround, NewFileSmallerThanMinBlockSize) {
  // F_new below min_block_size cannot host even one block; recursion must
  // bottom out immediately and fall through to literals.
  Rng rng(30);
  Bytes f_old = SynthSourceFile(rng, 20000);
  Bytes f_new = rng.RandomBytes(17);
  MultiroundParams params;
  params.min_block_size = 64;
  EXPECT_EQ(MustSync(f_old, f_new, params).reconstructed, f_new);
  // And the mirrored case: tiny F_old against a full-size F_new.
  EXPECT_EQ(MustSync(f_new, f_old, params).reconstructed, f_old);
}

TEST(Multiround, OldFileSmallerThanStartBlockSize) {
  // F_old fits inside a single top-level block: round 0 has exactly one
  // hash to offer and everything hinges on the recursion split.
  Rng rng(31);
  Bytes f_old = SynthSourceFile(rng, 300);
  MultiroundParams params;
  params.start_block_size = 2048;
  Bytes f_new = f_old;
  Bytes tail = rng.RandomBytes(40);
  Append(f_new, tail);
  EXPECT_EQ(MustSync(f_old, f_new, params).reconstructed, f_new);
}

TEST(Multiround, NonPowerOfTwoTails) {
  // Sizes chosen so every recursion level ends with a partial block; the
  // tail block shrinks below min_block_size on the last level.
  Rng rng(32);
  MultiroundParams params;
  params.start_block_size = 1024;
  params.min_block_size = 128;
  for (size_t size : {size_t{1}, size_t{127}, size_t{1025}, size_t{65539},
                      size_t{100001}}) {
    Bytes f_old = SynthSourceFile(rng, size);
    EditProfile ep;
    ep.num_edits = 3;
    Bytes f_new = ApplyEdits(f_old, ep, rng);
    EXPECT_EQ(MustSync(f_old, f_new, params).reconstructed, f_new)
        << "size=" << size;
  }
}

TEST(Multiround, InvalidParamsRejected) {
  SimulatedChannel ch;
  Bytes a = ToBytes("x");
  MultiroundParams bad;
  bad.start_block_size = 999;
  EXPECT_FALSE(MultiroundSynchronize(a, a, bad, ch).ok());
  MultiroundParams bad2;
  bad2.weak_bits = 40;
  SimulatedChannel ch2;
  EXPECT_FALSE(MultiroundSynchronize(a, a, bad2, ch2).ok());
}

class MultiroundFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiroundFuzz, AlwaysReconstructs) {
  Rng rng(GetParam());
  Bytes f_old = SynthSourceFile(rng, 1 + rng.Uniform(50000));
  EditProfile ep;
  ep.num_edits = static_cast<int>(rng.Uniform(30));
  ep.locality = rng.NextDouble();
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  MultiroundParams params;
  params.start_block_size = 512u << rng.Uniform(4);
  params.min_block_size = 64u << rng.Uniform(3);
  params.weak_bits = 16 + static_cast<int>(rng.Uniform(17));
  params.strong_bits = static_cast<int>(rng.Uniform(25));
  MustSync(f_old, f_new, params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiroundFuzz,
                         ::testing::Range<uint64_t>(0, 24));

TEST(Multiround, SitsBetweenRsyncAndFullProtocolExpectation) {
  // Sanity on the baseline ladder: multiround rsync should beat classic
  // rsync on lightly edited large files (recursion prunes matched
  // regions), since that is precisely the prior result the paper cites.
  Rng rng(4);
  Bytes f_old = SynthSourceFile(rng, 200000);
  EditProfile ep;
  ep.num_edits = 4;
  Bytes f_new = ApplyEdits(f_old, ep, rng);

  MultiroundParams mp;
  MultiroundResult mr = MustSync(f_old, f_new, mp);

  RsyncParams rp;  // default 700-byte blocks
  SimulatedChannel ch;
  auto rr = RsyncSynchronize(f_old, f_new, rp, ch);
  ASSERT_TRUE(rr.ok());
  EXPECT_LT(mr.stats.total_bytes(), rr->stats.total_bytes());
}

TEST(Multiround, WeakHashesStillEndCorrect) {
  // Absurdly weak hashes force false matches; the fingerprint check and
  // fallback keep the result correct.
  Rng rng(5);
  Bytes f_old = SynthSourceFile(rng, 80000);
  EditProfile ep;
  ep.num_edits = 10;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  MultiroundParams params;
  params.weak_bits = 8;
  params.strong_bits = 0;
  MultiroundResult r = MustSync(f_old, f_new, params);
  EXPECT_EQ(r.reconstructed, f_new);
}

}  // namespace
}  // namespace fsx
