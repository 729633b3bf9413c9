#include <gtest/gtest.h>

#include <algorithm>

#include "fsync/rsync/rsync.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

RsyncResult MustRsync(const Bytes& f_old, const Bytes& f_new,
                      const RsyncParams& params) {
  SimulatedChannel channel;
  auto r = RsyncSynchronize(f_old, f_new, params, channel);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->reconstructed, f_new);
  return std::move(*r);
}

TEST(RsyncSignatures, EncodeDecodeRoundTrip) {
  Rng rng(1);
  Bytes f = rng.RandomBytes(10000);
  RsyncParams params;
  params.block_size = 512;
  std::vector<BlockSignature> sigs = ComputeSignatures(f, params);
  EXPECT_EQ(sigs.size(), 10000u / 512);
  Bytes wire = EncodeSignatures(sigs, params);
  auto back = DecodeSignatures(wire, params);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ((*back)[i].weak, sigs[i].weak);
    EXPECT_EQ((*back)[i].strong, sigs[i].strong);
  }
}

TEST(Rsync, IdenticalFilesDetectedUnchanged) {
  Rng rng(2);
  Bytes f = SynthSourceFile(rng, 30000);
  RsyncParams params;
  RsyncResult r = MustRsync(f, f, params);
  EXPECT_LT(r.stats.total_bytes(), 64u);
}

TEST(Rsync, SmallEditReconstructs) {
  Rng rng(3);
  Bytes f_old = SynthSourceFile(rng, 50000);
  EditProfile ep;
  ep.num_edits = 4;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  RsyncParams params;
  RsyncResult r = MustRsync(f_old, f_new, params);
  EXPECT_FALSE(r.fell_back_to_full_transfer);
  // Much cheaper than the raw file.
  EXPECT_LT(r.stats.total_bytes(), f_new.size() / 2);
}

TEST(Rsync, HandlesShiftedContent) {
  // Insertion destroys block alignment; the rolling checksum must still
  // match blocks at arbitrary offsets.
  Rng rng(4);
  Bytes f_old = SynthSourceFile(rng, 40000);
  Bytes f_new = f_old;
  Bytes ins = ToBytes("xx");
  f_new.insert(f_new.begin() + 33, ins.begin(), ins.end());
  RsyncParams params;
  params.block_size = 700;
  RsyncResult r = MustRsync(f_old, f_new, params);
  // Roughly: signatures (6B/block) + small literal region + indices.
  uint64_t sig_cost = (f_old.size() / 700) * 6;
  EXPECT_LT(r.stats.total_bytes(), sig_cost + 3500);
}

TEST(Rsync, EmptyOldFile) {
  Rng rng(5);
  Bytes f_new = SynthSourceFile(rng, 20000);
  RsyncParams params;
  RsyncResult r = MustRsync({}, f_new, params);
  EXPECT_EQ(r.reconstructed, f_new);
}

TEST(Rsync, EmptyNewFile) {
  Rng rng(6);
  Bytes f_old = SynthSourceFile(rng, 20000);
  RsyncParams params;
  RsyncResult r = MustRsync(f_old, {}, params);
  EXPECT_TRUE(r.reconstructed.empty());
}

TEST(Rsync, FileSmallerThanBlockSize) {
  Bytes f_old = ToBytes("short old");
  Bytes f_new = ToBytes("short new content");
  RsyncParams params;
  params.block_size = 700;
  RsyncResult r = MustRsync(f_old, f_new, params);
  EXPECT_EQ(r.reconstructed, f_new);
}

TEST(Rsync, SingleByteFiles) {
  Bytes a = {0x41};
  Bytes b = {0x42};
  RsyncParams params;
  EXPECT_EQ(MustRsync(a, b, params).reconstructed, b);
  EXPECT_EQ(MustRsync(a, a, params).reconstructed, a);
}

TEST(Rsync, NonPowerOfTwoTail) {
  // File length deliberately not a multiple of the block size: the final
  // partial block has no signature, so it must travel as a literal while
  // the aligned prefix still matches.
  Rng rng(20);
  RsyncParams params;
  params.block_size = 512;
  Bytes f_old = SynthSourceFile(rng, 512 * 39 + 37);
  Bytes f_new = f_old;
  Bytes tail_edit = rng.RandomBytes(5);
  // Edit inside the ragged tail only.
  std::copy(tail_edit.begin(), tail_edit.end(), f_new.end() - 10);
  RsyncResult r = MustRsync(f_old, f_new, params);
  EXPECT_FALSE(r.fell_back_to_full_transfer);
  // The matched prefix keeps traffic near signature cost, far below the
  // file size.
  EXPECT_LT(r.stats.total_bytes(), f_new.size() / 4);
}

TEST(Rsync, TailShrinksAndGrowsAcrossOddSizes) {
  Rng rng(21);
  RsyncParams params;
  params.block_size = 700;
  for (size_t old_size : {size_t{699}, size_t{701}, size_t{700 * 3 + 1}}) {
    for (int delta : {-13, 0, +29}) {
      Bytes f_old = SynthSourceFile(rng, old_size);
      Bytes f_new = f_old;
      if (delta < 0) {
        f_new.resize(f_new.size() - static_cast<size_t>(-delta));
      } else if (delta > 0) {
        Bytes extra = rng.RandomBytes(static_cast<size_t>(delta));
        Append(f_new, extra);
      }
      EXPECT_EQ(MustRsync(f_old, f_new, params).reconstructed, f_new)
          << "old=" << old_size << " delta=" << delta;
    }
  }
}

class RsyncBlockSizes : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RsyncBlockSizes, RoundTripAcrossBlockSizes) {
  Rng rng(7);
  Bytes f_old = SynthSourceFile(rng, 30000);
  EditProfile ep;
  ep.num_edits = 12;
  ep.locality = 0.2;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  RsyncParams params;
  params.block_size = GetParam();
  RsyncResult r = MustRsync(f_old, f_new, params);
  EXPECT_EQ(r.reconstructed, f_new);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RsyncBlockSizes,
                         ::testing::Values(16, 64, 100, 256, 700, 2048,
                                           8192));

TEST(Rsync, BestBlockSizeBeatsDefaultOnFavorableInput) {
  // Lightly-edited large file: bigger blocks reduce signature traffic.
  Rng rng(9);
  Bytes f_old = SynthSourceFile(rng, 120000);
  EditProfile ep;
  ep.num_edits = 2;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  RsyncParams params;
  auto best = RsyncBestBlockSize(f_old, f_new, params);
  ASSERT_TRUE(best.ok());
  RsyncResult def = MustRsync(f_old, f_new, params);
  EXPECT_LE(best->stats.total_bytes(), def.stats.total_bytes());
  EXPECT_EQ(best->reconstructed, f_new);
}

TEST(Rsync, BlockSizeTradeoffExists) {
  // With dispersed edits, very large blocks match nothing and very small
  // blocks cost too many signatures; the sweep must not be monotone.
  Rng rng(10);
  Bytes f_old = SynthSourceFile(rng, 80000);
  EditProfile ep;
  ep.num_edits = 60;
  ep.locality = 0.0;
  Bytes f_new = ApplyEdits(f_old, ep, rng);

  auto cost = [&](uint32_t block) {
    RsyncParams p;
    p.block_size = block;
    return MustRsync(f_old, f_new, p).stats.total_bytes();
  };
  uint64_t tiny = cost(16);
  uint64_t mid = cost(512);
  uint64_t huge = cost(16384);
  EXPECT_LT(mid, tiny);
  EXPECT_LT(mid, huge);
}

TEST(Rsync, StrongBytesWidthConfigurable) {
  Rng rng(11);
  Bytes f_old = SynthSourceFile(rng, 20000);
  EditProfile ep;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  for (uint32_t sb : {1u, 2u, 4u, 8u}) {
    RsyncParams params;
    params.strong_bytes = sb;
    RsyncResult r = MustRsync(f_old, f_new, params);
    EXPECT_EQ(r.reconstructed, f_new) << "strong_bytes=" << sb;
  }
}

}  // namespace
}  // namespace fsx
