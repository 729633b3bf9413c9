#include "fsync/compress/lz77.h"

#include <algorithm>
#include <cstring>

namespace fsx {

namespace {

constexpr uint32_t kHashBits = 15;
constexpr uint32_t kHashSize = 1u << kHashBits;

// The window and the match lengths are the limits of the codec's
// DEFLATE distance and length code tables.
constexpr uint32_t kWindowSize = 32768;  // max back-reference distance
constexpr uint32_t kMinMatch = 3;
constexpr uint32_t kMaxMatch = 258;
constexpr uint32_t kMaxChain = 128;   // hash-chain probes per position
constexpr uint32_t kGoodLength = 32;  // stop lazy evaluation above this

inline uint32_t HashAt(const uint8_t* p) {
  // Multiplicative hash of a 3-byte prefix.
  uint32_t v = static_cast<uint32_t>(p[0]) |
               (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

inline uint32_t MatchLength(const uint8_t* a, const uint8_t* b,
                            uint32_t max_len) {
  uint32_t len = 0;
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

}  // namespace

std::vector<Lz77Token> Lz77Tokenize(ByteSpan data) {
  std::vector<Lz77Token> tokens;
  const size_t n = data.size();
  tokens.reserve(n / 4);

  if (n < kMinMatch) {
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back({false, data[i], 0, 0});
    }
    return tokens;
  }

  std::vector<int32_t> head(kHashSize, -1);
  std::vector<int32_t> chain(n, -1);
  const uint8_t* base = data.data();

  auto insert = [&](size_t pos) {
    if (pos + 3 <= n) {
      uint32_t h = HashAt(base + pos);
      chain[pos] = head[h];
      head[h] = static_cast<int32_t>(pos);
    }
  };

  auto find_match = [&](size_t pos, uint32_t min_beat) -> Lz77Token {
    Lz77Token best{false, base[pos], 0, 0};
    if (pos + 3 > n) {
      return best;
    }
    uint32_t max_len = static_cast<uint32_t>(
        std::min<size_t>(kMaxMatch, n - pos));
    if (max_len < kMinMatch) {
      return best;
    }
    uint32_t best_len = std::max(kMinMatch - 1, min_beat);
    int32_t cand = head[HashAt(base + pos)];
    uint32_t probes = kMaxChain;
    while (cand >= 0 && probes-- > 0) {
      size_t cpos = static_cast<size_t>(cand);
      if (pos - cpos > kWindowSize) {
        break;
      }
      // Quick reject on the byte one past the current best.
      if (best_len < max_len &&
          base[cpos + best_len] == base[pos + best_len]) {
        uint32_t len = MatchLength(base + cpos, base + pos, max_len);
        if (len > best_len) {
          best_len = len;
          best = {true, 0, len, static_cast<uint32_t>(pos - cpos)};
          if (len >= max_len) {
            break;
          }
        }
      }
      cand = chain[cpos];
    }
    return best;
  };

  size_t pos = 0;
  while (pos < n) {
    Lz77Token cur = find_match(pos, 0);
    if (cur.is_match && cur.length < kGoodLength && pos + 1 < n) {
      // Lazy matching: if the next position yields a strictly longer
      // match, emit a literal here instead.
      insert(pos);
      Lz77Token next = find_match(pos + 1, cur.length);
      if (next.is_match && next.length > cur.length) {
        tokens.push_back({false, base[pos], 0, 0});
        ++pos;
        continue;  // `next` will be rediscovered at the new pos
      }
      // Keep `cur`; insert remaining covered positions.
      for (size_t i = pos + 1; i < pos + cur.length; ++i) {
        insert(i);
      }
      tokens.push_back(cur);
      pos += cur.length;
      continue;
    }
    if (cur.is_match) {
      for (size_t i = pos; i < pos + cur.length; ++i) {
        insert(i);
      }
      tokens.push_back(cur);
      pos += cur.length;
    } else {
      insert(pos);
      tokens.push_back(cur);
      ++pos;
    }
  }
  return tokens;
}

}  // namespace fsx
