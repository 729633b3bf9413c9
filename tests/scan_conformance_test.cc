// Pins ScanForKeys, the rolling scan behind every protocol's block
// matching, to a brute-force reference that recomputes the block hash at
// every window start. Window counts on either side of the scan's
// kScanChunk boundary (≡ 0, 1 and 255 mod 256), block sizes from 1 to
// 4096 bytes, weak-hash widths from 8 to 32 bits,
// duplicate keys, a verify callback that rejects some positions, the
// early exit once every item matched, and serial and sharded execution.
// Labeled `conformance`; FSX_SEED=<n> replays a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fsync/index/scan.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

static_assert(kScanChunk == 256, "window counts below assume 256-key chunks");

// Random bytes with a few stretches copied elsewhere and a short-period
// run, so equal windows (and so duplicate keys) occur at several places.
Bytes MakeHaystack(Rng& rng, size_t n) {
  Bytes hay = rng.RandomBytes(n);
  for (int i = 0; i < 3 && n >= 8; ++i) {
    const size_t len = 1 + rng.Uniform(n / 4);
    const size_t from = rng.Uniform(n - len + 1);
    const size_t to = rng.Uniform(n - len + 1);
    const Bytes stretch(hay.begin() + from, hay.begin() + from + len);
    std::copy(stretch.begin(), stretch.end(), hay.begin() + to);
  }
  if (n >= 16) {
    const size_t len = 1 + rng.Uniform(n / 2);
    const size_t at = rng.Uniform(n - len + 1);
    const size_t period = 1 + rng.Uniform(4);
    for (size_t k = period; k < len; ++k) {
      hay[at + k] = hay[at + k - period];
    }
  }
  return hay;
}

// The key of the window at every start, each computed from scratch.
std::vector<uint32_t> WindowKeys(ByteSpan hay, uint64_t size, int bits) {
  std::vector<uint32_t> keys(hay.size() - size + 1);
  for (uint64_t p = 0; p < keys.size(); ++p) {
    keys[p] = AdlerScanHash::BlockKey(hay.subspan(p, size), bits);
  }
  return keys;
}

// The reference: for each item, the first start whose key matches and
// whose position the verifier accepts.
template <typename Verify>
std::vector<uint64_t> BruteForceScan(const std::vector<uint32_t>& windows,
                                     const std::vector<uint32_t>& keys,
                                     const Verify& verify) {
  std::vector<uint64_t> pos(keys.size(), kScanNoMatch);
  for (size_t i = 0; i < keys.size(); ++i) {
    for (uint64_t p = 0; p < windows.size(); ++p) {
      if (windows[p] == keys[i] && verify(i, p)) {
        pos[i] = p;
        break;
      }
    }
  }
  return pos;
}

// Keys drawn from real windows (so they match, some of them at several
// starts), repeated keys, and random keys (which at narrow widths still
// collide with windows).
std::vector<uint32_t> MakeKeys(Rng& rng, const std::vector<uint32_t>& windows,
                               int bits) {
  std::vector<uint32_t> keys;
  const size_t n = 1 + rng.Uniform(24);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(windows[rng.Uniform(windows.size())]);
  }
  for (size_t i = 0; i < 4; ++i) {
    keys.push_back(keys[rng.Uniform(keys.size())]);  // duplicate key
  }
  const uint32_t mask = bits >= 32 ? ~0u : (1u << bits) - 1;
  for (size_t i = 0; i < 4; ++i) {
    keys.push_back(static_cast<uint32_t>(rng.Next()) & mask);
  }
  return keys;
}

// A pure verifier rejecting about a quarter of (item, position) pairs.
struct RejectSome {
  uint64_t salt;
  bool operator()(size_t i, uint64_t p) const {
    uint64_t z = salt ^ (i * 0x9E3779B97F4A7C15ull) ^ (p << 17) ^ p;
    z = (z ^ (z >> 31)) * 0xBF58476D1CE4E5B9ull;
    return ((z ^ (z >> 29)) & 3) != 0;
  }
};

TEST(ScanConformance, MatchesBruteForceAcrossChunkBoundaries) {
  const uint64_t seed = SeedFromEnv(1301);
  Rng rng(seed);
  // Window counts ≡ 1, 255, 0 (mod 256): a lone partial chunk, one short
  // of a chunk, exact chunks, and one past a chunk boundary.
  const uint64_t kWindowCounts[] = {1, 255, 256, 257, 511, 512, 767, 769};
  const uint64_t kSizes[] = {1, 2, 3, 7, 31, 63, 64, 65, 255, 256, 257,
                             1000, 2048, 4095, 4096};
  const int kBits[] = {8, 11, 16, 19, 24, 27, 32};
  size_t cell = 0;
  for (uint64_t size : kSizes) {
    for (uint64_t windows : kWindowCounts) {
      const int bits = kBits[cell++ % std::size(kBits)];
      const Bytes hay = MakeHaystack(rng, windows + size - 1);
      const std::vector<uint32_t> window_keys = WindowKeys(hay, size, bits);
      ASSERT_EQ(window_keys.size(), windows);
      const std::vector<uint32_t> keys = MakeKeys(rng, window_keys, bits);
      const RejectSome reject{rng.Next()};
      auto accept = [](size_t, uint64_t) { return true; };
      const std::vector<uint64_t> want_all =
          BruteForceScan(window_keys, keys, accept);
      const std::vector<uint64_t> want_some =
          BruteForceScan(window_keys, keys, reject);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("size=" + std::to_string(size) +
                     " windows=" + std::to_string(windows) +
                     " bits=" + std::to_string(bits) +
                     " threads=" + std::to_string(threads) +
                     " FSX_SEED=" + std::to_string(seed));
        ScanOptions opts;
        opts.num_threads = threads;
        opts.min_shard_windows = 16;  // shard even these small inputs
        std::vector<uint64_t> got;
        ScanForKeys(hay, size, bits, keys, accept, got, opts);
        EXPECT_EQ(got, want_all);
        BlockIndex scratch;  // also exercise scratch reuse
        ScanForKeys(hay, size, bits, keys, reject, got, opts, &scratch);
        EXPECT_EQ(got, want_some);
        ScanForKeys(hay, size, bits, keys, reject, got, opts, &scratch);
        EXPECT_EQ(got, want_some);
      }
    }
  }
}

TEST(ScanConformance, StopsProbingOnceEveryItemMatched) {
  const uint64_t seed = SeedFromEnv(1303);
  Rng rng(seed);
  SCOPED_TRACE("FSX_SEED=" + std::to_string(seed));
  constexpr uint64_t kSize = 48;
  const Bytes hay = rng.RandomBytes(4000);
  const std::vector<uint32_t> window_keys = WindowKeys(hay, kSize, 32);
  // Every key occurs (its source position is an upper bound on its
  // earliest match), one of them twice.
  std::vector<uint32_t> keys;
  for (uint64_t at : {5u, 300u, 700u, 300u}) {
    keys.push_back(window_keys[at]);
  }
  auto accept = [](size_t, uint64_t) { return true; };
  const std::vector<uint64_t> want =
      BruteForceScan(window_keys, keys, accept);
  const uint64_t last_match = *std::max_element(want.begin(), want.end());
  ASSERT_LE(last_match, 700u);

  uint64_t last_probe = 0;
  std::vector<uint64_t> got;
  ScanForKeys(
      hay, kSize, 32, keys,
      [&](size_t, uint64_t p) {
        last_probe = std::max(last_probe, p);
        return true;
      },
      got);
  EXPECT_EQ(got, want);
  // Serial scans stop at the position that matched the last item; the
  // rest of the haystack is never verified against.
  EXPECT_EQ(last_probe, last_match);
}

TEST(ScanConformance, EdgeInputsReportNoMatch) {
  const Bytes hay = Rng(SeedFromEnv(1307)).RandomBytes(100);
  auto accept = [](size_t, uint64_t) { return true; };
  std::vector<uint64_t> got;
  ScanForKeys(hay, 101, 16, {1u, 2u}, accept, got);  // block > file
  EXPECT_EQ(got, (std::vector<uint64_t>{kScanNoMatch, kScanNoMatch}));
  ScanForKeys(hay, 0, 16, {1u}, accept, got);  // empty block
  EXPECT_EQ(got, (std::vector<uint64_t>{kScanNoMatch}));
  ScanForKeys(hay, 8, 16, {}, accept, got);  // nothing to find
  EXPECT_TRUE(got.empty());
  // A window exactly the haystack: one start, found at 0.
  ScanForKeys(hay, hay.size(), 20, {AdlerScanHash::BlockKey(hay, 20)},
              accept, got);
  EXPECT_EQ(got, (std::vector<uint64_t>{0}));
}

}  // namespace
}  // namespace fsx
