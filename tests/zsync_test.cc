#include <gtest/gtest.h>

#include "fsync/zsync/zsync.h"

#include "fsync/compress/codec.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

StatusOr<Bytes> RunZsync(ByteSpan f_old, ByteSpan f_new,
                         const ZsyncParams& params,
                         uint64_t* control_bytes = nullptr,
                         uint64_t* payload_bytes = nullptr,
                         double* coverage = nullptr) {
  FSYNC_ASSIGN_OR_RETURN(Bytes control, MakeZsyncControl(f_new, params));
  if (control_bytes != nullptr) {
    *control_bytes = control.size();
  }
  FSYNC_ASSIGN_OR_RETURN(ZsyncPlan plan, PlanFromControl(f_old, control));
  if (coverage != nullptr) {
    *coverage = plan.CoveredFraction();
  }
  Bytes request = EncodeRangeRequest(plan);
  FSYNC_ASSIGN_OR_RETURN(Bytes payload, ServeRanges(f_new, request));
  if (payload_bytes != nullptr) {
    *payload_bytes = payload.size();
  }
  return ApplyZsync(f_old, plan, payload);
}

TEST(Zsync, SmallEditReconstructs) {
  Rng rng(1);
  Bytes f_old = SynthSourceFile(rng, 100000);
  EditProfile ep;
  ep.num_edits = 6;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  ZsyncParams params;
  double coverage = 0;
  uint64_t control = 0;
  uint64_t payload = 0;
  auto r = RunZsync(f_old, f_new, params, &control, &payload, &coverage);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, f_new);
  EXPECT_GT(coverage, 0.7);
  // Control file: ~(24+24) bits per 2 KiB block.
  EXPECT_LT(control, f_new.size() / 200);
  EXPECT_LT(payload, f_new.size() / 2);
}

TEST(Zsync, IdenticalFilesFetchNothing) {
  Rng rng(2);
  Bytes f = SynthSourceFile(rng, 50000);
  ZsyncParams params;
  auto control = MakeZsyncControl(f, params);
  ASSERT_TRUE(control.ok());
  auto plan = PlanFromControl(f, *control);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->CoveredFraction(), 1.0);
  EXPECT_TRUE(plan->Missing().empty());
  auto r = RunZsync(f, f, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, f);
}

TEST(Zsync, EmptyAndUnrelated) {
  Rng rng(3);
  Bytes f_new = SynthSourceFile(rng, 30000);
  ZsyncParams params;
  auto a = RunZsync({}, f_new, params);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, f_new);
  Bytes junk = rng.RandomBytes(30000);
  auto b = RunZsync(junk, f_new, params);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, f_new);
  auto c = RunZsync(f_new, {}, params);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->empty());
}

TEST(Zsync, TailBlockMatches) {
  // New file whose length is not a multiple of the block size, tail
  // present in the old file: the short tail must match, not be fetched.
  Rng rng(4);
  Bytes f_old = SynthSourceFile(rng, 50000);
  Bytes f_new(f_old.begin(), f_old.begin() + 10300);  // 10300 % 2048 != 0
  ZsyncParams params;
  auto control = MakeZsyncControl(f_new, params);
  ASSERT_TRUE(control.ok());
  auto plan = PlanFromControl(f_old, *control);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->CoveredFraction(), 1.0);
}

TEST(Zsync, MissingRangesCoalesce) {
  ZsyncPlan plan;
  plan.new_size = 10000;
  plan.block_size = 1000;
  plan.sources.assign(10, 0);
  plan.sources[2] = ZsyncPlan::kMissing;
  plan.sources[3] = ZsyncPlan::kMissing;
  plan.sources[7] = ZsyncPlan::kMissing;
  auto missing = plan.Missing();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].begin, 2000u);
  EXPECT_EQ(missing[0].length, 2000u);
  EXPECT_EQ(missing[1].begin, 7000u);
  EXPECT_EQ(missing[1].length, 1000u);
}

TEST(Zsync, CorruptControlRejected) {
  Rng rng(5);
  Bytes f = SynthSourceFile(rng, 20000);
  ZsyncParams params;
  auto control = MakeZsyncControl(f, params);
  ASSERT_TRUE(control.ok());
  Bytes truncated(control->begin(), control->begin() + control->size() / 2);
  EXPECT_FALSE(PlanFromControl(f, truncated).ok());
  EXPECT_FALSE(PlanFromControl(f, Bytes{}).ok());
  ZsyncParams bad;
  bad.weak_bits = 0;
  EXPECT_FALSE(MakeZsyncControl(f, bad).ok());
}

TEST(Zsync, WrongPayloadDetected) {
  Rng rng(6);
  Bytes f_old = SynthSourceFile(rng, 30000);
  EditProfile ep;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  ZsyncParams params;
  auto control = MakeZsyncControl(f_new, params);
  ASSERT_TRUE(control.ok());
  auto plan = PlanFromControl(f_old, *control);
  ASSERT_TRUE(plan.ok());
  Bytes wrong = Compress(rng.RandomBytes(4096));
  auto r = ApplyZsync(f_old, *plan, wrong);
  EXPECT_FALSE(r.ok());  // payload too short or fingerprint mismatch
}

class ZsyncFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZsyncFuzz, AlwaysReconstructs) {
  Rng rng(GetParam());
  Bytes f_old = SynthSourceFile(rng, 1 + rng.Uniform(60000));
  EditProfile ep;
  ep.num_edits = static_cast<int>(rng.Uniform(25));
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  ZsyncParams params;
  params.block_size = 256u << rng.Uniform(5);
  params.weak_bits = 16 + static_cast<int>(rng.Uniform(17));
  params.strong_bits = 16 + static_cast<int>(rng.Uniform(17));
  auto r = RunZsync(f_old, f_new, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, f_new);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZsyncFuzz,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace fsx
