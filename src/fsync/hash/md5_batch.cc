#include "fsync/hash/md5_batch.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "fsync/hash/md5.h"
#include "fsync/simd/dispatch.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#include <immintrin.h>
#define FSYNC_MD5X16_AVX512 1
#endif

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

// Message word index of step i.
constexpr int WordOf(int i) {
  return i < 16 ? i
         : i < 32 ? (5 * i + 1) & 15
         : i < 48 ? (3 * i + 5) & 15
                  : (7 * i) & 15;
}

inline uint32_t Le32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

// A W-lane kernel: one MD5 compression of blocks[l] (64 bytes) into lane
// l's state, for every l < W. state[j][l] is state word j (A, B, C, D) of
// lane l.
template <int W>
using CompressFn = void (*)(uint32_t state[][W], const uint8_t* const* blocks);

// One MD5 compression over four 64-byte blocks, one per lane.
void Compress4(uint32_t state[][4], const uint8_t* const* blocks) {
  U32x4 m[16];
  for (int j = 0; j < 16; ++j) {
    m[j] = U32x4{Le32(blocks[0] + 4 * j), Le32(blocks[1] + 4 * j),
                 Le32(blocks[2] + 4 * j), Le32(blocks[3] + 4 * j)};
  }
  U32x4 s[4];
  std::memcpy(s, state, sizeof(s));
  U32x4 a = s[0], b = s[1], c = s[2], d = s[3];
  for (int i = 0; i < 64; ++i) {
    U32x4 f;
    if (i < 16) {
      f = (b & c) | (~b & d);
    } else if (i < 32) {
      f = (d & b) | (~d & c);
    } else if (i < 48) {
      f = b ^ c ^ d;
    } else {
      f = c ^ (b | ~d);
    }
    U32x4 tmp = d;
    d = c;
    c = b;
    b = b + Rotl(a + f + kT[i] + m[WordOf(i)], kShift[i]);
    a = tmp;
  }
  s[0] += a;
  s[1] += b;
  s[2] += c;
  s[3] += d;
  std::memcpy(state, s, sizeof(s));
}

#if defined(FSYNC_MD5X16_AVX512)
// One MD5 compression over sixteen 64-byte blocks, one per 32-bit lane of
// a ZMM register. Two 8-lane gathers per message word read it straight
// from every lane's block (x86 is little-endian, so no byte swap); one
// ternary-logic op is each step's F/G/H/I, and one variable rotate its
// shift.
__attribute__((target("avx512f,avx512vl"))) void Compress16(
    uint32_t state[][16], const uint8_t* const* blocks) {
  static_assert(sizeof(const uint8_t*) == 8, "64-bit gather indices");
  const __m512i ptr_lo = _mm512_loadu_si512(blocks);
  const __m512i ptr_hi = _mm512_loadu_si512(blocks + 8);
  // The all-ones-mask forms of gather, insert and rotate below are the
  // plain instructions; GCC 12's unmasked wrappers trip -Wuninitialized
  // on their undefined pass-through operand.
  const __m256i zero = _mm256_setzero_si256();
  __m512i m[16];
  for (int j = 0; j < 16; ++j) {
    const __m512i off = _mm512_set1_epi64(4 * j);
    const __m512i lo = _mm512_castsi256_si512(_mm512_mask_i64gather_epi32(
        zero, 0xFF, _mm512_add_epi64(ptr_lo, off), nullptr, 1));
    const __m256i hi = _mm512_mask_i64gather_epi32(
        zero, 0xFF, _mm512_add_epi64(ptr_hi, off), nullptr, 1);
    m[j] = _mm512_mask_inserti64x4(lo, 0xFF, lo, hi, 1);
  }
  const __m512i a0 = _mm512_loadu_si512(state[0]);
  const __m512i b0 = _mm512_loadu_si512(state[1]);
  const __m512i c0 = _mm512_loadu_si512(state[2]);
  const __m512i d0 = _mm512_loadu_si512(state[3]);
  __m512i a = a0, b = b0, c = c0, d = d0;
#pragma GCC unroll 64
  for (int i = 0; i < 64; ++i) {
    // Truth tables over (x, y, z): 0xCA = x ? y : z, 0x96 = x ^ y ^ z,
    // 0x39 = y ^ (x | ~z).
    __m512i f;
    if (i < 16) {
      f = _mm512_ternarylogic_epi32(b, c, d, 0xCA);  // F = b ? c : d
    } else if (i < 32) {
      f = _mm512_ternarylogic_epi32(d, b, c, 0xCA);  // G = d ? b : c
    } else if (i < 48) {
      f = _mm512_ternarylogic_epi32(b, c, d, 0x96);  // H
    } else {
      f = _mm512_ternarylogic_epi32(b, c, d, 0x39);  // I = c ^ (b | ~d)
    }
    __m512i t = _mm512_add_epi32(
        _mm512_add_epi32(a, f),
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(kT[i])),
                         m[WordOf(i)]));
    t = _mm512_mask_rolv_epi32(t, 0xFFFF, t, _mm512_set1_epi32(kShift[i]));
    a = d;
    d = c;
    c = b;
    b = _mm512_add_epi32(b, t);
  }
  _mm512_storeu_si512(state[0], _mm512_add_epi32(a0, a));
  _mm512_storeu_si512(state[1], _mm512_add_epi32(b0, b));
  _mm512_storeu_si512(state[2], _mm512_add_epi32(c0, c));
  _mm512_storeu_si512(state[3], _mm512_add_epi32(d0, d));
}
#endif  // FSYNC_MD5X16_AVX512

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

// The messages of one batch call, and the next one no lane has started.
struct Queue {
  const ByteSpan* msgs;
  size_t n;
  size_t next;
  uint64_t salt;
  size_t prefix;  // 8 when salted, else 0
};

// One lane's message. Its padded blocks form up to three runs: a staged
// head (the block holding the salt prefix), the blocks that lie wholly in
// the message's bytes and are read in place, and a staged tail (the one
// or two blocks holding the end of the data, the 0x80 byte and the bit
// length). Head and tail are staged once, when the lane takes the
// message, so moving to the next block is a pointer bump.
struct Lane {
  size_t msg = 0;
  size_t left = 0;  // blocks still to compress; 0 = idle
  size_t run_left = 0;  // blocks left in the current run
  int run = 0;
  int n_runs = 0;
  const uint8_t* run_ptr[3] = {};
  size_t run_len[3] = {};
  alignas(64) uint8_t stage[3 * 64];  // head at [0, 64), tail after it

  // Takes message `index` of `q`, staging its head and tail blocks.
  void Start(const Queue& q, size_t index) {
    const ByteSpan data = q.msgs[index];
    const uint64_t total_len = q.prefix + data.size();
    const size_t n_blocks = static_cast<size_t>((total_len + 8) / 64 + 1);
    // Block k lies wholly in the data iff 64k >= prefix and
    // 64k + 64 <= total_len.
    const size_t head = q.prefix != 0 ? 1 : 0;
    const size_t direct_end =
        std::max(head, static_cast<size_t>(total_len / 64));
    msg = index;
    left = n_blocks;
    n_runs = 0;
    auto add_run = [this](const uint8_t* p, size_t len) {
      if (len != 0) {
        run_ptr[n_runs] = p;
        run_len[n_runs++] = len;
      }
    };
    if (head != 0) {
      LaneBlock(data, q.salt, q.prefix, total_len, 0, stage);
    }
    add_run(stage, head);
    add_run(data.data() + (64 * head - q.prefix), direct_end - head);
    for (size_t k = direct_end; k < n_blocks; ++k) {
      LaneBlock(data, q.salt, q.prefix, total_len, k,
                stage + 64 * (1 + k - direct_end));
    }
    add_run(stage + 64, n_blocks - direct_end);
    run = 0;
    run_left = run_len[0];
  }

  // The block to compress next.
  const uint8_t* block() const {
    return run_ptr[run] + 64 * (run_len[run] - run_left);
  }

  // Steps past the block just compressed; false once the message ended.
  bool Advance() {
    --left;
    if (--run_left == 0 && left != 0) {
      ++run;
      run_left = run_len[run];
    }
    return left != 0;
  }
};

// W lanes mid-flight: each lane's message position and its state words
// (word j of lane l at state[j][l], the layout the kernels take).
template <int W>
struct LaneSet {
  alignas(64) uint32_t state[4][W] = {};
  Lane lanes[W];
  int active = 0;
};

// The lane-refill scheduler: runs `set` on kernel `Compress`, giving each
// idle lane the next queued message. When a lane's message ends,
// `done(i, words)` receives message i's final state words and the lane is
// refilled, so messages of any mix of lengths keep all W lanes busy until
// the queue runs dry. Idle lanes compress a dummy block whose result is
// discarded. Returns once the queue is empty and at most `floor` lanes
// are busy (so floor 0 finishes every message).
template <int W, CompressFn<W> Compress, typename Done>
void RunLanes(LaneSet<W>& set, Queue& q, int floor, Done& done) {
  static constexpr uint8_t kIdle[64] = {};
  while (true) {
    for (int l = 0; l < W && q.next < q.n; ++l) {
      Lane& lane = set.lanes[l];
      if (lane.left != 0) {
        continue;
      }
      lane.Start(q, q.next++);
      for (int j = 0; j < 4; ++j) {
        set.state[j][l] = kIv[j];
      }
      ++set.active;
    }
    if (set.active <= floor && q.next == q.n) {
      return;
    }
    const uint8_t* ptrs[W];
    for (int l = 0; l < W; ++l) {
      const Lane& lane = set.lanes[l];
      ptrs[l] = lane.left == 0 ? kIdle : lane.block();
    }
    Compress(set.state, ptrs);
    for (int l = 0; l < W; ++l) {
      Lane& lane = set.lanes[l];
      if (lane.left != 0 && !lane.Advance()) {
        const uint32_t words[4] = {set.state[0][l], set.state[1][l],
                                   set.state[2][l], set.state[3][l]};
        done(lane.msg, words);
        --set.active;
      }
    }
  }
}

#if defined(FSYNC_MD5X16_AVX512)
// Moves the busy lanes of `from` (at most four) into the idle `to`,
// position and state words with them. Their staged blocks stay in
// `from`, which must outlive `to`'s run.
void NarrowLanes(const LaneSet<16>& from, LaneSet<4>& to) {
  for (int l = 0; l < 16; ++l) {
    if (from.lanes[l].left == 0) {
      continue;
    }
    const int t = to.active++;
    to.lanes[t] = from.lanes[l];
    for (int j = 0; j < 4; ++j) {
      to.state[j][t] = from.state[j][l];
    }
  }
}
#endif

// Hashes msgs[0, n) (each prefixed by the 8 salt bytes when salt != 0)
// on the widest kernel the active dispatch tier allows, calling
// done(i, words) with message i's final state words.
template <typename Done>
void Md5Lanes(const ByteSpan* msgs, size_t n, uint64_t salt, Done done) {
  Queue q{msgs, n, 0, salt, salt != 0 ? size_t{8} : size_t{0}};
  LaneSet<4> narrow;
#if defined(FSYNC_MD5X16_AVX512)
  // Declared here, not in the branch: lanes handed to `narrow` keep
  // reading their staged blocks from it.
  std::optional<LaneSet<16>> wide;
  if (n > 4 && simd::ActiveTier() == simd::DispatchTier::kAvx512) {
    // 16-wide while more than four messages are left, then the last ones
    // finish 4-wide: an idle wide lane costs more than a narrow one.
    wide.emplace();
    RunLanes<16, Compress16>(*wide, q, /*floor=*/4, done);
    NarrowLanes(*wide, narrow);
  }
#endif
  RunLanes<4, Compress4>(narrow, q, /*floor=*/0, done);
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
