#include "fsync/hash/md5_batch.h"

#include <cstring>

#include "fsync/hash/md5.h"

namespace fsx {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define FSYNC_MD5X4_SIMD 1
// Four 32-bit lanes, one per message. The GNU vector extension compiles
// to SSE2/NEON registers where available and to unrolled scalar code
// elsewhere; either way the four dependency chains interleave.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

inline U32x4 Rotl(U32x4 x, int k) { return (x << k) | (x >> (32 - k)); }

// Same per-step constants and shifts as the scalar implementation
// (md5.cc); duplicated here because they are private to that TU.
constexpr uint32_t kT[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr int kShift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                            7, 12, 17, 22, 5, 9,  14, 20, 5, 9,  14, 20,
                            5, 9,  14, 20, 5, 9,  14, 20, 4, 11, 16, 23,
                            4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                            6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
                            6, 10, 15, 21};

inline uint32_t Le32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

// One MD5 compression over four 64-byte blocks, one per lane.
void Compress4(U32x4 state[4], const uint8_t* const blocks[4]) {
  U32x4 m[16];
  for (int j = 0; j < 16; ++j) {
    m[j] = U32x4{Le32(blocks[0] + 4 * j), Le32(blocks[1] + 4 * j),
                 Le32(blocks[2] + 4 * j), Le32(blocks[3] + 4 * j)};
  }
  U32x4 a = state[0], b = state[1], c = state[2], d = state[3];
  for (int i = 0; i < 64; ++i) {
    U32x4 f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) & 15;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) & 15;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) & 15;
    }
    U32x4 tmp = d;
    d = c;
    c = b;
    b = b + Rotl(a + f + kT[i] + m[g], kShift[i]);
    a = tmp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
}

// Materializes byte range [64*k, 64*k + 64) of one lane's padded message
// (salt prefix if salt != 0, data, 0x80, zeros, 64-bit little-endian bit
// length) into `stage`, or returns a pointer straight into `data` when
// the block lies entirely inside it (the common case).
const uint8_t* LaneBlock(ByteSpan data, uint64_t salt, size_t prefix,
                         uint64_t total_len, size_t k, uint8_t stage[64]) {
  const uint64_t begin = uint64_t{64} * k;
  if (begin >= prefix && begin + 64 <= prefix + data.size()) {
    return data.data() + (begin - prefix);
  }
  std::memset(stage, 0, 64);
  for (uint64_t pos = begin; pos < prefix && pos < begin + 64; ++pos) {
    stage[pos - begin] = static_cast<uint8_t>(salt >> (8 * pos));
  }
  // Data bytes [max(begin, prefix), min(begin + 64, total_len)).
  const uint64_t lo = begin > prefix ? begin : prefix;
  const uint64_t hi = total_len < begin + 64 ? total_len : begin + 64;
  if (lo < hi) {
    std::memcpy(stage + (lo - begin), data.data() + (lo - prefix), hi - lo);
  }
  if (total_len >= begin && total_len < begin + 64) {
    stage[total_len - begin] = 0x80;
  }
  const uint64_t padded_end = ((total_len + 8) / 64 + 1) * 64;
  if (padded_end == begin + 64) {
    const uint64_t bit_len = total_len * 8;
    for (int i = 0; i < 8; ++i) {
      stage[56 + i] = static_cast<uint8_t>(bit_len >> (8 * i));
    }
  }
  return stage;
}

constexpr uint32_t kIv[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                             0x10325476u};

// The lane-refill scheduler: hashes msgs[0, n) four at a time. Each lane
// walks one message's padded blocks through Compress4; when a lane's
// message ends, `done(i, words)` receives message i's final state words
// and the lane is refilled with the next message, so messages of any
// mix of lengths keep all four lanes busy until the last three. Idle
// lanes at the tail compress a dummy block whose result is discarded.
template <typename Done>
void Md5Lanes(const ByteSpan* msgs, size_t n, uint64_t salt, Done done) {
  struct Lane {
    size_t msg = 0;
    size_t block = 0;
    size_t n_blocks = 0;  // 0 = idle
    uint64_t total_len = 0;
  };
  static constexpr uint8_t kIdle[64] = {};
  const size_t prefix = salt != 0 ? 8 : 0;
  U32x4 state[4] = {};
  Lane lanes[4];
  uint8_t stage[4][64];
  size_t next = 0;
  int active = 0;
  while (true) {
    for (int l = 0; l < 4; ++l) {
      if (lanes[l].n_blocks == 0 && next < n) {
        Lane& lane = lanes[l];
        lane.msg = next++;
        lane.block = 0;
        lane.total_len = prefix + msgs[lane.msg].size();
        lane.n_blocks = static_cast<size_t>((lane.total_len + 8) / 64 + 1);
        for (int j = 0; j < 4; ++j) {
          state[j][l] = kIv[j];
        }
        ++active;
      }
    }
    if (active == 0) {
      return;
    }
    const uint8_t* ptrs[4];
    for (int l = 0; l < 4; ++l) {
      const Lane& lane = lanes[l];
      ptrs[l] = lane.n_blocks == 0
                    ? kIdle
                    : LaneBlock(msgs[lane.msg], salt, prefix, lane.total_len,
                                lane.block, stage[l]);
    }
    Compress4(state, ptrs);
    for (int l = 0; l < 4; ++l) {
      Lane& lane = lanes[l];
      if (lane.n_blocks != 0 && ++lane.block == lane.n_blocks) {
        const uint32_t words[4] = {state[0][l], state[1][l], state[2][l],
                                   state[3][l]};
        done(lane.msg, words);
        lane.n_blocks = 0;
        --active;
      }
    }
  }
}
#endif  // FSYNC_MD5X4_SIMD

}  // namespace

void Md5Batch(const ByteSpan* msgs, size_t n, Md5Digest* out) {
#if defined(FSYNC_MD5X4_SIMD)
  Md5Lanes(msgs, n, /*salt=*/0, [out](size_t i, const uint32_t words[4]) {
    for (int j = 0; j < 4; ++j) {
      for (int b = 0; b < 4; ++b) {
        out[i][4 * j + b] = static_cast<uint8_t>(words[j] >> (8 * b));
      }
    }
  });
#else
  for (size_t i = 0; i < n; ++i) {
    out[i] = Md5::Hash(msgs[i]);
  }
#endif
}

void Md5HashBitsBatch(const ByteSpan* blocks, size_t n, int num_bits,
                      uint64_t salt, uint64_t* out) {
#if defined(FSYNC_MD5X4_SIMD)
  const uint64_t mask =
      num_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << num_bits) - 1;
  Md5Lanes(blocks, n, salt, [out, mask](size_t i, const uint32_t words[4]) {
    // Low 8 digest bytes = state words 0 and 1, little-endian.
    out[i] = (static_cast<uint64_t>(words[0]) |
              (static_cast<uint64_t>(words[1]) << 32)) &
             mask;
  });
#else
  for (size_t i = 0; i < n; ++i) {
    out[i] = Md5::HashBits(blocks[i], num_bits, salt);
  }
#endif
}

void Md5HashBits4(const ByteSpan blocks[4], int num_bits, uint64_t salt,
                  uint64_t out[4]) {
  Md5HashBitsBatch(blocks, 4, num_bits, salt, out);
}

}  // namespace fsx
