#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "fsync/hash/crc32c.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/hash/karp_rabin.h"
#include "fsync/hash/md4.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/hash/rolling_adler.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/simd/dispatch.h"
#include "fsync/util/hex.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

Bytes B(const std::string& s) { return ToBytes(s); }

// --- MD4: RFC 1320 test vectors -------------------------------------

struct DigestCase {
  const char* input;
  const char* hex;
};

// Print a case as its quoted input text. Without this, gtest prints the
// struct's raw bytes -- two string-literal addresses -- so the case names
// that test discovery derives from GetParam() change with every build.
void PrintTo(const DigestCase& c, std::ostream* os) {
  ::testing::internal::UniversalPrint(std::string(c.input), os);
}

class Md4Vectors : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Md4Vectors, MatchesRfc1320) {
  const auto& c = GetParam();
  Bytes in = B(c.input);
  EXPECT_EQ(HexEncode(Md4::Hash(in)), c.hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1320, Md4Vectors,
    ::testing::Values(
        DigestCase{"", "31d6cfe0d16ae931b73c59d7e0c089c0"},
        DigestCase{"a", "bde52cb31de33e46245e05fbdbd6fb24"},
        DigestCase{"abc", "a448017aaf21d8525fc10ae87aa6729d"},
        DigestCase{"message digest", "d9130a8164549fe818874806e1c7014b"},
        DigestCase{"abcdefghijklmnopqrstuvwxyz",
                   "d79e1c308aa5bbcdeea8ed63df412da9"},
        DigestCase{
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "043f8582f241db351ce627e153e7f0e4"},
        DigestCase{"1234567890123456789012345678901234567890123456789012345"
                   "6789012345678901234567890",
                   "e33b4ddc9c38f2199c3e7b164fcc0536"}));

// --- MD5: RFC 1321 test vectors -------------------------------------

class Md5Vectors : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Md5Vectors, MatchesRfc1321) {
  const auto& c = GetParam();
  Bytes in = B(c.input);
  EXPECT_EQ(HexEncode(Md5::Hash(in)), c.hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Vectors,
    ::testing::Values(
        DigestCase{"", "d41d8cd98f00b204e9800998ecf8427e"},
        DigestCase{"a", "0cc175b9c0f1b6a831c399e269772661"},
        DigestCase{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        DigestCase{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        DigestCase{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        DigestCase{
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f"},
        DigestCase{"1234567890123456789012345678901234567890123456789012345"
                   "6789012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, IncrementalMatchesOneShot) {
  Rng rng(7);
  Bytes data = rng.RandomBytes(1000);
  Md5 h;
  h.Update(ByteSpan(data).subspan(0, 1));
  h.Update(ByteSpan(data).subspan(1, 62));
  h.Update(ByteSpan(data).subspan(63, 65));
  h.Update(ByteSpan(data).subspan(128, 872));
  EXPECT_EQ(h.Finish(), Md5::Hash(data));
}

TEST(Md4, IncrementalMatchesOneShot) {
  Rng rng(9);
  Bytes data = rng.RandomBytes(517);
  Md4 h;
  h.Update(ByteSpan(data).subspan(0, 100));
  h.Update(ByteSpan(data).subspan(100, 417));
  EXPECT_EQ(h.Finish(), Md4::Hash(data));
}

TEST(Md5, HashBitsSaltChangesValue) {
  Bytes data = B("some verification payload");
  EXPECT_NE(Md5::HashBits(data, 32, 1), Md5::HashBits(data, 32, 2));
  EXPECT_EQ(Md5::HashBits(data, 16, 5), Md5::HashBits(data, 16, 5));
  EXPECT_LT(Md5::HashBits(data, 8, 0), 256u);
}

// --- Rolling Adler (rsync weak checksum) ----------------------------

TEST(RollingAdler, RollMatchesDirectComputation) {
  Rng rng(42);
  Bytes data = rng.RandomBytes(4096);
  const size_t w = 700;
  RollingAdler roll(ByteSpan(data).subspan(0, w));
  for (size_t pos = 0;; ++pos) {
    EXPECT_EQ(roll.value(), RsyncWeakChecksum(ByteSpan(data).subspan(pos, w)))
        << "at pos " << pos;
    if (pos + w >= data.size()) {
      break;
    }
    roll.Roll(data[pos], data[pos + w]);
  }
}

TEST(RollingAdler, WindowOfOne) {
  Bytes data = B("xyz");
  RollingAdler roll(ByteSpan(data).subspan(0, 1));
  EXPECT_EQ(roll.value(), RsyncWeakChecksum(ByteSpan(data).subspan(0, 1)));
  roll.Roll(data[0], data[1]);
  EXPECT_EQ(roll.value(), RsyncWeakChecksum(ByteSpan(data).subspan(1, 1)));
}

// --- Tabled Adler: rolling, composable, decomposable -----------------

TEST(TabledAdler, RollMatchesDirect) {
  Rng rng(1);
  Bytes data = rng.RandomBytes(2000);
  const size_t w = 128;
  TabledAdlerWindow win(ByteSpan(data).subspan(0, w));
  for (size_t pos = 0;; ++pos) {
    EXPECT_EQ(win.pair(), TabledAdler::Hash(ByteSpan(data).subspan(pos, w)))
        << "at pos " << pos;
    if (pos + w >= data.size()) {
      break;
    }
    win.Roll(data[pos], data[pos + w]);
  }
}

class TabledAdlerSplit : public ::testing::TestWithParam<size_t> {};

TEST_P(TabledAdlerSplit, ComposeAndDecomposeIdentities) {
  Rng rng(GetParam());
  size_t total = 2 + rng.Uniform(512);
  size_t cut = 1 + rng.Uniform(total - 1);
  Bytes data = rng.RandomBytes(total);
  ByteSpan whole(data);
  AdlerPair parent = TabledAdler::Hash(whole);
  AdlerPair left = TabledAdler::Hash(whole.subspan(0, cut));
  AdlerPair right = TabledAdler::Hash(whole.subspan(cut));

  EXPECT_EQ(TabledAdler::Compose(left, right, total - cut), parent);
  EXPECT_EQ(TabledAdler::SplitRight(parent, left, total - cut), right);
  EXPECT_EQ(TabledAdler::SplitLeft(parent, right, total - cut), left);
}

INSTANTIATE_TEST_SUITE_P(RandomSplits, TabledAdlerSplit,
                         ::testing::Range<size_t>(0, 50));

TEST(TabledAdler, TruncationPreservesDecomposition) {
  // Derived-from-truncated pairs must agree with the truncation of the
  // true pair: the protocol relies on this to suppress sibling hashes.
  Rng rng(77);
  Bytes data = rng.RandomBytes(256);
  ByteSpan whole(data);
  AdlerPair parent = TabledAdler::Hash(whole);
  AdlerPair left = TabledAdler::Hash(whole.subspan(0, 100));
  AdlerPair right = TabledAdler::Hash(whole.subspan(100));

  for (int bits = 2; bits <= 32; bits += 3) {
    // Simulate the client: it only holds the truncated parent and left.
    auto truncate_pair = [&](AdlerPair p) {
      uint32_t packed = TabledAdler::Truncate(p, bits);
      int a_bits = bits / 2;
      int b_bits = bits - a_bits;
      AdlerPair out;
      out.a = static_cast<uint16_t>(
          a_bits > 0 ? packed & ((1u << a_bits) - 1) : 0);
      out.b = static_cast<uint16_t>(
          (packed >> a_bits) &
          (b_bits >= 16 ? 0xFFFFu : ((1u << b_bits) - 1)));
      return out;
    };
    AdlerPair derived = TabledAdler::SplitRight(truncate_pair(parent),
                                                truncate_pair(left), 156);
    EXPECT_EQ(TabledAdler::Truncate(derived, bits),
              TabledAdler::Truncate(right, bits))
        << "bits=" << bits;
  }
}

TEST(TabledAdler, PermutedStringsUsuallyDiffer) {
  // The plain Adler 'a' component is permutation-invariant; the tabled
  // pair's 'b' component must separate permutations.
  Bytes a = B("abcdefgh12345678");
  Bytes b = B("hgfedcba87654321");
  EXPECT_NE(TabledAdler::Hash(a), TabledAdler::Hash(b));
}

TEST(TabledAdler, SubstitutionTableIsStable) {
  // The table must be identical across runs/platforms or the two
  // endpoints would disagree; pin a few entries.
  const uint16_t* t = TabledAdler::SubstitutionTable();
  uint16_t t0 = t[0], t255 = t[255];
  EXPECT_EQ(t0, TabledAdler::SubstitutionTable()[0]);
  EXPECT_EQ(t255, TabledAdler::SubstitutionTable()[255]);
  // Not the identity mapping.
  int diffs = 0;
  for (int i = 0; i < 256; ++i) {
    diffs += (t[i] != i);
  }
  EXPECT_GT(diffs, 250);
}

// --- Karp-Rabin ------------------------------------------------------

TEST(KarpRabin, RollMatchesDirect) {
  Rng rng(3);
  Bytes data = rng.RandomBytes(1500);
  const size_t w = 64;
  KarpRabin kr(ByteSpan(data).subspan(0, w));
  for (size_t pos = 0;; ++pos) {
    EXPECT_EQ(kr.value(), KarpRabin::Hash(ByteSpan(data).subspan(pos, w)))
        << "at pos " << pos;
    if (pos + w >= data.size()) {
      break;
    }
    kr.Roll(data[pos], data[pos + w]);
  }
}

TEST(KarpRabin, DistinguishesPrefixesOfZeros) {
  Bytes zeros1(10, 0);
  Bytes zeros2(11, 0);
  EXPECT_NE(KarpRabin::Hash(zeros1), KarpRabin::Hash(zeros2));
}

// --- Fingerprint ------------------------------------------------------

TEST(Fingerprint, EqualIffEqualContent) {
  Bytes a = B("identical content");
  Bytes b = B("identical content");
  Bytes c = B("different content");
  EXPECT_EQ(FileFingerprint(a), FileFingerprint(b));
  EXPECT_NE(FileFingerprint(a), FileFingerprint(c));
}

// --- CRC32C (RFC 3720 test vectors) -----------------------------------

TEST(Crc32c, MatchesKnownVectors) {
  EXPECT_EQ(Crc32c(ByteSpan()), 0x00000000u);
  EXPECT_EQ(Crc32c(B("123456789")), 0xE3069283u);  // the "check" value
  EXPECT_EQ(Crc32c(B("a")), 0xC1D04330u);
  EXPECT_EQ(Crc32c(B("The quick brown fox jumps over the lazy dog")),
            0x22620404u);
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);  // RFC 3720 B.4: 32 bytes of 0
  Bytes ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);  // RFC 3720 B.4: 32 bytes of 0xFF
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Bytes data = Rng(42).RandomBytes(1023);  // odd size: exercises the tail
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{512}}) {
    uint32_t crc = kCrc32cInit;
    crc = Crc32cUpdate(crc, ByteSpan(data.data(), cut));
    crc = Crc32cUpdate(crc, ByteSpan(data.data() + cut, data.size() - cut));
    EXPECT_EQ(Crc32cFinish(crc), Crc32c(data)) << "cut at " << cut;
  }
}

TEST(Crc32c, DetectsSingleBitErrors) {
  Bytes data = B("framing integrity");
  const uint32_t good = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = data;
      bad[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(bad), good)
          << "bit " << bit << " of byte " << byte;
    }
  }
}

// --- CRC32C dispatch tiers (simd/): every runnable kernel must be
// bit-identical to the portable slice-by-4 code ------------------------

// Restores automatic tier resolution however a test exits.
class TierGuard {
 public:
  explicit TierGuard(simd::DispatchTier tier) { simd::ForceTier(tier); }
  ~TierGuard() { simd::ForceTier(std::nullopt); }
};

class Crc32cTiers : public ::testing::TestWithParam<simd::DispatchTier> {};

TEST_P(Crc32cTiers, MatchesRfc3720Vectors) {
  TierGuard guard(GetParam());
  EXPECT_EQ(Crc32c(ByteSpan()), 0x00000000u);
  EXPECT_EQ(Crc32c(B("123456789")), 0xE3069283u);
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  Bytes ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  Bytes incrementing(32);
  for (int i = 0; i < 32; ++i) incrementing[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(incrementing), 0x46DD794Eu);
  Bytes decrementing(32);
  for (int i = 0; i < 32; ++i) {
    decrementing[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc32c(decrementing), 0x113FDB5Cu);
}

TEST_P(Crc32cTiers, UnalignedAndShortBuffersMatchPortable) {
  TierGuard guard(GetParam());
  Bytes data = Rng(7).RandomBytes(256);
  // Every sub-8-byte length at every alignment in [0, 8), plus lengths
  // around the word boundary — the kernel's byte-wise head/tail paths.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                       size_t{4}, size_t{5}, size_t{6}, size_t{7},
                       size_t{8}, size_t{9}, size_t{15}, size_t{16},
                       size_t{17}, size_t{63}, size_t{64}, size_t{65}}) {
      ByteSpan span(data.data() + offset, len);
      EXPECT_EQ(Crc32cUpdate(kCrc32cInit, span),
                Crc32cUpdatePortable(kCrc32cInit, span))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST_P(Crc32cTiers, PageStraddlingBuffersMatchPortable) {
  TierGuard guard(GetParam());
  // Two touching pages; spans end exactly at, one byte past, and
  // straddling the boundary, at shifted alignments.
  constexpr size_t kPage = 4096;
  std::vector<uint8_t> pages(2 * kPage);
  Rng rng(11);
  for (uint8_t& b : pages) b = static_cast<uint8_t>(rng.Next());
  for (size_t begin : {kPage - 257, kPage - 64, kPage - 9, kPage - 1}) {
    for (size_t len : {size_t{1}, size_t{8}, size_t{9}, size_t{64},
                       size_t{300}, size_t{2 * kPage} /* clipped */}) {
      size_t n = std::min(len, 2 * kPage - begin);
      ByteSpan span(pages.data() + begin, n);
      EXPECT_EQ(Crc32cUpdate(kCrc32cInit, span),
                Crc32cUpdatePortable(kCrc32cInit, span))
          << "begin " << begin << " len " << n;
    }
  }
}

TEST_P(Crc32cTiers, LongBuffersExerciseStreamCombine) {
  TierGuard guard(GetParam());
  // > 3 long stripes (3 * 8 KiB) so the interleaved three-stream path
  // and its GF(2) recombination run; odd tail defeats round sizes.
  Bytes data = Rng(13).RandomBytes(3 * 8192 * 4 + 137);
  EXPECT_EQ(Crc32cUpdate(kCrc32cInit, data),
            Crc32cUpdatePortable(kCrc32cInit, data));
  // Chained updates across uneven cuts must equal the one-shot CRC.
  for (size_t cut : {size_t{1}, size_t{8191}, size_t{3 * 8192},
                     size_t{3 * 8192 * 2 + 5}}) {
    uint32_t crc = kCrc32cInit;
    crc = Crc32cUpdate(crc, ByteSpan(data.data(), cut));
    crc = Crc32cUpdate(crc, ByteSpan(data.data() + cut, data.size() - cut));
    EXPECT_EQ(Crc32cFinish(crc), Crc32c(data)) << "cut at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRunnableTiers, Crc32cTiers,
    ::testing::ValuesIn(simd::AvailableTiers()),
    [](const ::testing::TestParamInfo<simd::DispatchTier>& info) {
      return simd::TierName(info.param);
    });

TEST(DispatchControl, ForceTierPinsAndReleases) {
  simd::ForceTier(simd::DispatchTier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::DispatchTier::kScalar);
  simd::ForceTier(std::nullopt);
  // Auto resolution again: whatever it picks must be runnable here.
  simd::DispatchTier tier = simd::ActiveTier();
  bool runnable = false;
  for (simd::DispatchTier t : simd::AvailableTiers()) {
    runnable = runnable || t == tier;
  }
  EXPECT_TRUE(runnable);
}

// --- Batched MD5: bit-exact vs the scalar hasher under every tier -----
//
// Each case runs once per runnable dispatch tier, so both batch kernels
// are pinned where the host has them: the 4-lane one (scalar, sse42,
// armv8crc) and the 16-lane one (avx512). Backing buffers are offset by
// an odd byte count so no message starts on an aligned address.

// Every runnable tier, each pinned for the iteration that names it.
template <typename Body>
void ForEachTier(const Body& body) {
  for (simd::DispatchTier tier : simd::AvailableTiers()) {
    TierGuard guard(tier);
    SCOPED_TRACE(std::string("tier ") + simd::TierName(tier));
    body();
  }
}

TEST(Md5Batch, MatchesScalarAcrossSizesAndSalts) {
  // Sizes poke the padding state machine: empty, sub-block, the 55/56
  // padding split (with and without the 8-byte salt prefix), block
  // multiples, typical sync block sizes and a page. Batches of 4, 16
  // and 21 fill one narrow lane set, one wide lane set, and a wide set
  // plus a partial group.
  ForEachTier([] {
    Rng rng(31);
    for (size_t size : {size_t{0}, size_t{1}, size_t{47}, size_t{48},
                        size_t{55}, size_t{56}, size_t{63}, size_t{64},
                        size_t{65}, size_t{119}, size_t{120}, size_t{128},
                        size_t{2048}, size_t{4095}, size_t{4096}}) {
      for (uint64_t salt : {uint64_t{0}, uint64_t{0xA11},
                            uint64_t{0x25A6C}, ~uint64_t{0}}) {
        Bytes backing = rng.RandomBytes(21 * size + 3);
        std::vector<ByteSpan> blocks;
        for (int l = 0; l < 21; ++l) {
          blocks.push_back(ByteSpan(backing.data() + 1 + l * size, size));
        }
        for (int bits : {1, 16, 24, 40, 64}) {
          uint64_t out4[4];
          Md5HashBits4(blocks.data(), bits, salt, out4);
          for (int l = 0; l < 4; ++l) {
            EXPECT_EQ(out4[l], Md5::HashBits(blocks[l], bits, salt))
                << "size " << size << " salt " << salt << " bits " << bits
                << " lane " << l;
          }
          for (size_t n : {size_t{16}, size_t{21}}) {
            std::vector<uint64_t> out(n);
            Md5HashBitsBatch(blocks.data(), n, bits, salt, out.data());
            for (size_t l = 0; l < n; ++l) {
              EXPECT_EQ(out[l], Md5::HashBits(blocks[l], bits, salt))
                  << "size " << size << " salt " << salt << " bits "
                  << bits << " n " << n << " lane " << l;
            }
          }
        }
      }
    }
  });
}

TEST(Md5Batch, BatchHandlesMixedSizesAndStragglers) {
  ForEachTier([] {
    Rng rng(37);
    // Blocks of irregular sizes: runs of equal sizes and odd ones out
    // must hash identically whichever lane they land in.
    const size_t sizes[] = {100, 100, 100, 100, 100, 100, 100, 37,  100,
                            100, 64,  55,  56,  120, 119, 1,   0,   4096,
                            63,  100, 100, 100, 9};
    Bytes backing = rng.RandomBytes(8192);
    std::vector<ByteSpan> blocks;
    size_t off = 1;
    for (size_t s : sizes) {
      blocks.push_back(ByteSpan(backing.data() + off, s));
      off += s;
    }
    for (size_t n : {size_t{11}, blocks.size()}) {
      std::vector<uint64_t> out(n);
      Md5HashBitsBatch(blocks.data(), n, 48, 0xFEED, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], Md5::HashBits(blocks[i], 48, 0xFEED))
            << "n " << n << " block " << i;
      }
    }
  });
}

TEST(Md5Batch, DigestsMatchScalarAtEveryLength) {
  // Every length 0-300 covers each padding split (with the 0x80 byte and
  // the bit length landing in the same or the next block) several times
  // over; 4095-4097 straddle a page-sized file. Each message starts one
  // byte after the last, so half of them sit at odd addresses.
  ForEachTier([] {
    Rng rng(41);
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 300; ++len) lengths.push_back(len);
    lengths.insert(lengths.end(), {4095, 4096, 4097});
    Bytes backing = rng.RandomBytes(4097 + lengths.size());
    std::vector<ByteSpan> msgs;
    for (size_t i = 0; i < lengths.size(); ++i) {
      msgs.push_back(ByteSpan(backing.data() + i, lengths[i]));
    }
    std::vector<Md5Digest> out(msgs.size());
    Md5Batch(msgs.data(), msgs.size(), out.data());
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(out[i], Md5::Hash(msgs[i])) << "length " << lengths[i];
    }
  });
}

TEST(Md5Batch, DigestsMatchScalarAtEveryCount) {
  // Every count 0-40 (idle lanes and partial final groups of both lane
  // widths, and the hand-off from sixteen lanes to four), plus a long
  // batch whose lanes refill hundreds of times.
  ForEachTier([] {
    Rng rng(43);
    Bytes backing = rng.RandomBytes(8192);
    std::vector<size_t> counts;
    for (size_t n = 0; n <= 40; ++n) counts.push_back(n);
    counts.push_back(1001);
    for (size_t n : counts) {
      std::vector<ByteSpan> msgs;
      for (size_t i = 0; i < n; ++i) {
        const size_t len = rng.Uniform(700);
        const size_t off = rng.Uniform(backing.size() - len + 1);
        msgs.push_back(ByteSpan(backing.data() + off, len));
      }
      std::vector<Md5Digest> out(n);
      Md5Batch(msgs.data(), n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], Md5::Hash(msgs[i])) << "n " << n << " msg " << i;
      }
    }
  });
}

TEST(Md5Batch, LongStragglerAmongSmallMessages) {
  // A 1 MiB message holds one lane for ~16k blocks while the other lanes
  // cycle through the small messages on either side of it; a second
  // batch ends on the straggler, so it finishes after the wide lanes
  // hand off to the narrow ones.
  ForEachTier([] {
    Rng rng(47);
    Bytes big = rng.RandomBytes((size_t{1} << 20) + 1);
    const ByteSpan odd_big(big.data() + 1, size_t{1} << 20);
    Bytes small = rng.RandomBytes(4096);
    std::vector<ByteSpan> msgs;
    for (size_t i = 0; i < 1000; ++i) {
      if (i == 500) msgs.push_back(odd_big);
      const size_t len = rng.Uniform(200);
      msgs.push_back(ByteSpan(small.data() + rng.Uniform(4096 - len), len));
    }
    std::vector<Md5Digest> out(msgs.size());
    Md5Batch(msgs.data(), msgs.size(), out.data());
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(out[i], Md5::Hash(msgs[i])) << "msg " << i;
    }
    std::vector<ByteSpan> tail(msgs.begin(), msgs.begin() + 30);
    tail.push_back(odd_big);
    std::vector<Md5Digest> tail_out(tail.size());
    Md5Batch(tail.data(), tail.size(), tail_out.data());
    for (size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail_out[i], Md5::Hash(tail[i])) << "tail msg " << i;
    }
  });
}

TEST(Md5Batch, HashBitsBatchMatchesScalarOnMixedLengths) {
  ForEachTier([] {
    Rng rng(53);
    Bytes backing = rng.RandomBytes(4096);
    std::vector<ByteSpan> blocks;
    for (int i = 0; i < 257; ++i) {
      const size_t len = rng.Uniform(1500);
      blocks.push_back(
          ByteSpan(backing.data() + rng.Uniform(backing.size() - len), len));
    }
    for (uint64_t salt : {uint64_t{0}, uint64_t{0xA11}, uint64_t{0x791E0},
                          ~uint64_t{0}}) {
      for (int bits : {1, 24, 40, 64}) {
        std::vector<uint64_t> out(blocks.size());
        Md5HashBitsBatch(blocks.data(), blocks.size(), bits, salt,
                         out.data());
        for (size_t i = 0; i < blocks.size(); ++i) {
          EXPECT_EQ(out[i], Md5::HashBits(blocks[i], bits, salt))
              << "salt " << salt << " bits " << bits << " block " << i;
        }
      }
    }
  });
}

}  // namespace
}  // namespace fsx
