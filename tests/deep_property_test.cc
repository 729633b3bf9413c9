// Second-layer property tests: reference-model equivalence and
// statistical quality checks that pin down behaviour the round-trip
// tests cannot see (bit-exact layouts, entropy optimality margins,
// false-positive rates).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_set>

#include "fsync/cdc/cdc_sync.h"
#include "fsync/compress/huffman.h"
#include "fsync/hash/rolling_adler.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/multiround/multiround.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

// Effective base seed for the randomized suites below; FSX_SEED=<n>
// replays a failing run exactly. Failure messages print the derived seed.
uint64_t BaseSeed() {
  static const uint64_t kBase = SeedFromEnv(0);
  return kBase;
}

// --- Rolling hashes vs. from-scratch recomputation ----------------------
//
// The weak-hash scan loops only ever see rolled values, so a roll/
// recompute divergence is silent corruption: blocks stop matching and
// the protocols quietly transfer everything literally. Pin, for every
// rolling hash (classic Adler, tabled Adler), that sliding to a
// random offset equals hashing the window from scratch — random window
// sizes, random offsets, random data, FSX_SEED replays.

class RollingHashModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RollingHashModel, RollEqualsRecomputeAtRandomOffsets) {
  const uint64_t seed = BaseSeed() + GetParam() * 1000003;
  Rng rng(seed);
  const std::string trace = "replay with FSX_SEED=" + std::to_string(seed);
  const size_t n = 2048 + rng.Uniform(8192);
  Bytes data = rng.RandomBytes(n);
  // Window sizes from tiny to protocol-typical block sizes.
  const size_t window = 1 + rng.Uniform(std::min<size_t>(n - 1, 4096));

  RollingAdler classic(ByteSpan(data.data(), window));
  TabledAdlerWindow tabled(ByteSpan(data.data(), window));
  size_t pos = 0;
  for (int hop = 0; hop < 64 && pos + window < n; ++hop) {
    // Random stride, so checks land at uncorrelated offsets.
    size_t stride = 1 + rng.Uniform(64);
    for (size_t s = 0; s < stride && pos + window < n; ++s, ++pos) {
      classic.Roll(data[pos], data[pos + window]);
      tabled.Roll(data[pos], data[pos + window]);
    }
    ByteSpan at(data.data() + pos, window);
    EXPECT_EQ(classic.value(), RollingAdler(at).value())
        << "classic adler, window " << window << " pos " << pos << "; "
        << trace;
    AdlerPair fresh = TabledAdler::Hash(at);
    EXPECT_TRUE(tabled.pair().a == fresh.a && tabled.pair().b == fresh.b)
        << "tabled adler, window " << window << " pos " << pos << "; "
        << trace;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWindows, RollingHashModel,
                         ::testing::Range(uint64_t{0}, uint64_t{24}));

// --- Bit I/O vs. a vector<bool> reference model -------------------------

class BitIoModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitIoModel, MatchesReferenceBitVector) {
  const uint64_t seed = BaseSeed() + GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  struct Op {
    uint64_t value;
    int bits;
  };
  std::vector<Op> ops;
  std::vector<bool> model;
  BitWriter w;
  int n_ops = 1 + static_cast<int>(rng.Uniform(200));
  for (int i = 0; i < n_ops; ++i) {
    Op op;
    op.bits = 1 + static_cast<int>(rng.Uniform(64));
    op.value = rng.Next();
    if (op.bits < 64) {
      op.value &= (uint64_t{1} << op.bits) - 1;
    }
    ops.push_back(op);
    w.WriteBits(op.value, op.bits);
    for (int b = 0; b < op.bits; ++b) {
      model.push_back((op.value >> b) & 1);
    }
  }
  Bytes buf = w.Finish();
  // The buffer's bits must equal the model (padded with zeros).
  ASSERT_GE(buf.size() * 8, model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ((buf[i / 8] >> (i % 8)) & 1, model[i] ? 1 : 0) << i;
  }
  // And reading must return the original fields.
  BitReader r(buf);
  for (const Op& op : ops) {
    auto got = r.ReadBits(op.bits);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, op.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIoModel,
                         ::testing::Range<uint64_t>(0, 20));

// --- Huffman optimality ---------------------------------------------------

TEST(HuffmanQuality, WithinHalfBitOfEntropy) {
  // Huffman is within 1 bit/symbol of entropy in the worst case; for the
  // smooth Zipf-ish distributions we feed it, expect much closer. The
  // weighted code length must also never beat entropy (sanity).
  Rng rng(1);
  std::vector<uint64_t> freqs(200);
  uint64_t total = 0;
  for (size_t i = 0; i < freqs.size(); ++i) {
    freqs[i] = 1 + 100000 / (i + 1);  // Zipf
    total += freqs[i];
  }
  std::vector<uint8_t> lens = BuildCodeLengths(freqs, 15);
  double entropy = 0;
  double avg_len = 0;
  for (size_t i = 0; i < freqs.size(); ++i) {
    double p = static_cast<double>(freqs[i]) / total;
    entropy += -p * std::log2(p);
    avg_len += p * lens[i];
  }
  EXPECT_GE(avg_len, entropy - 1e-9);
  EXPECT_LE(avg_len, entropy + 0.5);
}

TEST(HuffmanQuality, LengthLimitCostsLittle) {
  // Limiting to 9 bits on a 200-symbol Zipf alphabet must cost only a
  // few percent versus the 15-bit code (package-merge is optimal under
  // the limit, so this also guards against regressions to heuristics).
  Rng rng(2);
  std::vector<uint64_t> freqs(200);
  uint64_t total = 0;
  for (size_t i = 0; i < freqs.size(); ++i) {
    freqs[i] = 1 + 100000 / (i + 1);
    total += freqs[i];
  }
  auto weighted = [&](const std::vector<uint8_t>& lens) {
    double sum = 0;
    for (size_t i = 0; i < freqs.size(); ++i) {
      sum += static_cast<double>(freqs[i]) * lens[i];
    }
    return sum;
  };
  double free_len = weighted(BuildCodeLengths(freqs, 15));
  double limited = weighted(BuildCodeLengths(freqs, 9));
  EXPECT_LE(limited, free_len * 1.05);
}

// --- Tabled-Adler statistical quality -------------------------------------

TEST(TabledAdlerQuality, FalsePositiveRateNearTheoretical) {
  // Compare 10k random 64-byte block pairs at 16 truncated bits: the
  // collision rate must be within 3x of 2^-16 (i.e. behave like a real
  // hash, unlike the raw Adler whose sums are biased).
  SCOPED_TRACE("seed=" + std::to_string(BaseSeed() + 3));
  Rng rng(BaseSeed() + 3);
  const int kBits = 16;
  const int kTrials = 20000;
  int collisions = 0;
  for (int i = 0; i < kTrials; ++i) {
    Bytes a = rng.RandomBytes(64);
    Bytes b = rng.RandomBytes(64);
    collisions += TabledAdler::Truncate(TabledAdler::Hash(a), kBits) ==
                  TabledAdler::Truncate(TabledAdler::Hash(b), kBits);
  }
  double expect = kTrials / 65536.0;  // ~0.3
  EXPECT_LE(collisions, expect * 3 + 5);
}

TEST(TabledAdlerQuality, TextBlocksSpreadAcrossBuckets) {
  // Low-entropy text must still fill the truncated hash space; the raw
  // Adler 'a'-sum concentrates badly here.
  SCOPED_TRACE("seed=" + std::to_string(BaseSeed() + 4));
  Rng rng(BaseSeed() + 4);
  Bytes text = SynthSourceFile(rng, 300000);
  const int kBits = 12;
  std::vector<int> buckets(1 << kBits, 0);
  int n = 0;
  for (size_t off = 0; off + 64 <= text.size(); off += 64) {
    ++buckets[TabledAdler::Truncate(
        TabledAdler::Hash(ByteSpan(text).subspan(off, 64)), kBits)];
    ++n;
  }
  int used = 0;
  int max_bucket = 0;
  for (int c : buckets) {
    used += c > 0;
    max_bucket = std::max(max_bucket, c);
  }
  // With ~4700 samples into 4096 buckets, expect most buckets reachable
  // and no pathological pileup.
  EXPECT_GT(used, 2000);
  EXPECT_LT(max_bucket, 40);
}

// --- Tamper robustness for the auxiliary protocols -------------------------

template <typename SyncFn>
void TamperLoop(SyncFn&& sync, const Bytes& f_old, const Bytes& f_new) {
  for (uint64_t i = 0; i < 15; ++i) {
    const uint64_t seed = BaseSeed() + i;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng trng(seed);
    uint64_t target_msg = trng.Uniform(6);
    uint64_t count = 0;
    SimulatedChannel channel;
    channel.SetTamper([&](SimulatedChannel::Direction, Bytes& msg) {
      if (count++ == target_msg && !msg.empty()) {
        msg[trng.Uniform(msg.size())] ^=
            static_cast<uint8_t>(1 + trng.Uniform(255));
      }
    });
    sync(channel, seed);
    (void)f_old;
    (void)f_new;
  }
}

TEST(TamperRobustness, CdcNeverCrashesOrLies) {
  Rng rng(BaseSeed() + 5);
  Bytes f_old = SynthSourceFile(rng, 30000);
  EditProfile ep;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  CdcSyncParams params;
  TamperLoop(
      [&](SimulatedChannel& channel, uint64_t seed) {
        auto r = CdcSynchronize(f_old, f_new, params, channel);
        if (r.ok()) {
          EXPECT_EQ(r->reconstructed, f_new) << "seed=" << seed;
        }
      },
      f_old, f_new);
}

TEST(TamperRobustness, MultiroundNeverCrashesOrLies) {
  Rng rng(BaseSeed() + 6);
  Bytes f_old = SynthSourceFile(rng, 30000);
  EditProfile ep;
  Bytes f_new = ApplyEdits(f_old, ep, rng);
  MultiroundParams params;
  TamperLoop(
      [&](SimulatedChannel& channel, uint64_t seed) {
        auto r = MultiroundSynchronize(f_old, f_new, params, channel);
        if (r.ok()) {
          EXPECT_EQ(r->reconstructed, f_new) << "seed=" << seed;
        }
      },
      f_old, f_new);
}

}  // namespace
}  // namespace fsx
