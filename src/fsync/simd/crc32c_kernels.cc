#include "fsync/simd/crc32c_kernels.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define FSYNC_HAVE_SSE42_KERNEL 1
#endif

#if defined(__aarch64__)
#include <arm_acle.h>
#define FSYNC_HAVE_ARMV8_KERNEL 1
#if defined(__clang__)
#define FSYNC_ARM_CRC_TARGET __attribute__((target("crc")))
#else
#define FSYNC_ARM_CRC_TARGET __attribute__((target("+crc")))
#endif
#endif

namespace fsx::simd {

namespace {

#if defined(FSYNC_HAVE_SSE42_KERNEL) || defined(FSYNC_HAVE_ARMV8_KERNEL)

// ---- GF(2) zero-extension operators -------------------------------------
//
// Appending k zero bytes to a message multiplies its CRC by x^(8k) in
// GF(2)[x]/P(x) — a linear map on the 32 CRC bits. We materialize that map
// for the two fixed stripe lengths the interleaved loop uses, as 4x256
// byte-indexed tables, so merging a finished stripe costs four loads.
// (Technique from the public-domain crc32c three-stream recipe.)

constexpr uint32_t kPoly = 0x82F63B78u;  // CRC-32C, reflected

// Matrix (32 rows, bit i of row r = entry) times vector over GF(2).
uint32_t Gf2MatrixTimes(const uint32_t mat[32], uint32_t vec) {
  uint32_t sum = 0;
  int i = 0;
  while (vec != 0) {
    if (vec & 1u) {
      sum ^= mat[i];
    }
    vec >>= 1;
    ++i;
  }
  return sum;
}

void Gf2MatrixSquare(uint32_t square[32], const uint32_t mat[32]) {
  for (int n = 0; n < 32; ++n) {
    square[n] = Gf2MatrixTimes(mat, mat[n]);
  }
}

// Operator for appending `len` zero bytes, as a 32x32 GF(2) matrix.
void Crc32cZeroOp(uint32_t even[32], size_t len) {
  uint32_t odd[32];
  // Operator for one zero bit.
  odd[0] = kPoly;
  uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  // Square up to one zero byte (8 bits)...
  Gf2MatrixSquare(even, odd);  // 2 bits
  Gf2MatrixSquare(odd, even);  // 4 bits
  // ...then keep squaring while consuming the bits of len.
  do {
    Gf2MatrixSquare(even, odd);  // 8 << k bits
    len >>= 1;
    if (len == 0) {
      return;
    }
    Gf2MatrixSquare(odd, even);
    len >>= 1;
  } while (len != 0);
  for (int n = 0; n < 32; ++n) {
    even[n] = odd[n];
  }
}

struct ZeroTables {
  uint32_t t[4][256];

  explicit ZeroTables(size_t len) {
    uint32_t op[32];
    Crc32cZeroOp(op, len);
    for (uint32_t n = 0; n < 256; ++n) {
      t[0][n] = Gf2MatrixTimes(op, n);
      t[1][n] = Gf2MatrixTimes(op, n << 8);
      t[2][n] = Gf2MatrixTimes(op, n << 16);
      t[3][n] = Gf2MatrixTimes(op, n << 24);
    }
  }

  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

// Stripe lengths for the interleaved loop: long stripes amortize the
// merge cost on big buffers; short stripes keep mid-sized buffers (a few
// KiB — the transport's record size) on the fast path too.
constexpr size_t kLongStripe = 8192;
constexpr size_t kShortStripe = 256;

const ZeroTables& LongTables() {
  static const ZeroTables tables(kLongStripe);
  return tables;
}

const ZeroTables& ShortTables() {
  static const ZeroTables tables(kShortStripe);
  return tables;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

#endif  // any hardware kernel

#if defined(FSYNC_HAVE_SSE42_KERNEL)

__attribute__((target("sse4.2"))) uint32_t Crc32cUpdateSse42(
    uint32_t crc, const uint8_t* p, size_t n) {
  uint64_t crc0 = crc;
  // Align to 8 bytes so the wide loads below never straddle for free.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc0 = _mm_crc32_u8(static_cast<uint32_t>(crc0), *p);
    ++p;
    --n;
  }
  // Three independent chains over long stripes, merged via the
  // zero-extension tables.
  while (n >= 3 * kLongStripe) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    const uint8_t* end = p + kLongStripe;
    do {
      crc0 = _mm_crc32_u64(crc0, Load64(p));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kLongStripe));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kLongStripe));
      p += 8;
    } while (p < end);
    crc0 = LongTables().Shift(static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = LongTables().Shift(static_cast<uint32_t>(crc0)) ^ crc2;
    p += 2 * kLongStripe;
    n -= 3 * kLongStripe;
  }
  while (n >= 3 * kShortStripe) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    const uint8_t* end = p + kShortStripe;
    do {
      crc0 = _mm_crc32_u64(crc0, Load64(p));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kShortStripe));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kShortStripe));
      p += 8;
    } while (p < end);
    crc0 = ShortTables().Shift(static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = ShortTables().Shift(static_cast<uint32_t>(crc0)) ^ crc2;
    p += 2 * kShortStripe;
    n -= 3 * kShortStripe;
  }
  while (n >= 8) {
    crc0 = _mm_crc32_u64(crc0, Load64(p));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc0 = _mm_crc32_u8(static_cast<uint32_t>(crc0), *p);
    ++p;
    --n;
  }
  return static_cast<uint32_t>(crc0);
}

#endif  // FSYNC_HAVE_SSE42_KERNEL

#if defined(FSYNC_HAVE_ARMV8_KERNEL)

FSYNC_ARM_CRC_TARGET uint32_t Crc32cUpdateArmv8(uint32_t crc,
                                                const uint8_t* p,
                                                size_t n) {
  uint32_t crc0 = crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc0 = __crc32cb(crc0, *p);
    ++p;
    --n;
  }
  while (n >= 3 * kLongStripe) {
    uint32_t crc1 = 0;
    uint32_t crc2 = 0;
    const uint8_t* end = p + kLongStripe;
    do {
      crc0 = __crc32cd(crc0, Load64(p));
      crc1 = __crc32cd(crc1, Load64(p + kLongStripe));
      crc2 = __crc32cd(crc2, Load64(p + 2 * kLongStripe));
      p += 8;
    } while (p < end);
    crc0 = LongTables().Shift(crc0) ^ crc1;
    crc0 = LongTables().Shift(crc0) ^ crc2;
    p += 2 * kLongStripe;
    n -= 3 * kLongStripe;
  }
  while (n >= 3 * kShortStripe) {
    uint32_t crc1 = 0;
    uint32_t crc2 = 0;
    const uint8_t* end = p + kShortStripe;
    do {
      crc0 = __crc32cd(crc0, Load64(p));
      crc1 = __crc32cd(crc1, Load64(p + kShortStripe));
      crc2 = __crc32cd(crc2, Load64(p + 2 * kShortStripe));
      p += 8;
    } while (p < end);
    crc0 = ShortTables().Shift(crc0) ^ crc1;
    crc0 = ShortTables().Shift(crc0) ^ crc2;
    p += 2 * kShortStripe;
    n -= 3 * kShortStripe;
  }
  while (n >= 8) {
    crc0 = __crc32cd(crc0, Load64(p));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc0 = __crc32cb(crc0, *p);
    ++p;
    --n;
  }
  return crc0;
}

#endif  // FSYNC_HAVE_ARMV8_KERNEL

}  // namespace

Crc32cKernelFn Crc32cKernel(DispatchTier tier) {
  switch (tier) {
    case DispatchTier::kScalar:
      return nullptr;
    case DispatchTier::kSse42:
    case DispatchTier::kAvx512:  // the wide tier widens MD5, not CRC32C
#if defined(FSYNC_HAVE_SSE42_KERNEL)
      return DetectCpuFeatures().sse42 ? &Crc32cUpdateSse42 : nullptr;
#else
      return nullptr;
#endif
    case DispatchTier::kArmv8Crc:
#if defined(FSYNC_HAVE_ARMV8_KERNEL)
      return DetectCpuFeatures().armv8_crc ? &Crc32cUpdateArmv8 : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace fsx::simd
