#include "fsync/hash/md5.h"

#include <cstring>

namespace fsx {

namespace {

inline uint32_t Rotl32(uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

// Per-step constants: floor(2^32 * abs(sin(i+1))).
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

}  // namespace

Md5::Md5() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
}

void Md5::Compress(const uint8_t block[64]) {
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<uint32_t>(block[4 * i]) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 8) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 3]) << 24);
  }
  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  for (int i = 0; i < 64; ++i) {
    uint32_t f;
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
    uint32_t tmp = d;
    d = c;
    c = b;
    b = b + Rotl32(a + f + kT[i] + m[g], kShift[i]);
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::Update(ByteSpan data) {
  if (data.empty()) {
    return;  // an empty span may carry a null data(); memcpy forbids it
  }
  length_ += data.size();
  size_t pos = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    pos = take;
    if (buf_len_ == 64) {
      Compress(buf_);
      buf_len_ = 0;
    }
  }
  while (pos + 64 <= data.size()) {
    Compress(data.data() + pos);
    pos += 64;
  }
  if (pos < data.size()) {
    std::memcpy(buf_, data.data() + pos, data.size() - pos);
    buf_len_ = data.size() - pos;
  }
}

Md5Digest Md5::Finish() {
  uint64_t bit_len = length_ * 8;
  uint8_t pad[72] = {0x80};
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  Update(ByteSpan(pad, pad_len));
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Update(ByteSpan(len_bytes, 8));

  Md5Digest out;
  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i]);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i] >> 24);
  }
  return out;
}

Md5Digest Md5::Hash(ByteSpan data) {
  Md5 h;
  h.Update(data);
  return h.Finish();
}

uint64_t Md5::HashBits(ByteSpan data, int num_bits, uint64_t salt) {
  Md5 h;
  if (salt != 0) {
    uint8_t salt_bytes[8];
    for (int i = 0; i < 8; ++i) {
      salt_bytes[i] = static_cast<uint8_t>(salt >> (8 * i));
    }
    h.Update(ByteSpan(salt_bytes, 8));
  }
  h.Update(data);
  Md5Digest d = h.Finish();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(d[i]) << (8 * i);
  }
  if (num_bits >= 64) {
    return v;
  }
  return v & ((uint64_t{1} << num_bits) - 1);
}

}  // namespace fsx
