#include "fsync/hash/tabled_adler.h"

namespace fsx {

AdlerPair TabledAdler::Hash(ByteSpan block) {
  uint32_t a = 0;
  uint32_t b = 0;
  size_t n = block.size();
  for (size_t i = 0; i < n; ++i) {
    uint16_t t = hash_internal::kTabledAdlerTable[block[i]];
    a += t;
    b += static_cast<uint32_t>((n - i) & 0xFFFF) * t;
  }
  return {static_cast<uint16_t>(a), static_cast<uint16_t>(b)};
}

AdlerPair TabledAdler::Compose(AdlerPair left, AdlerPair right,
                               size_t right_len) {
  uint16_t a = static_cast<uint16_t>(left.a + right.a);
  uint16_t b = static_cast<uint16_t>(
      left.b + static_cast<uint16_t>(right_len) * left.a + right.b);
  return {a, b};
}

AdlerPair TabledAdler::SplitRight(AdlerPair parent, AdlerPair left,
                                  size_t right_len) {
  uint16_t a = static_cast<uint16_t>(parent.a - left.a);
  uint16_t b = static_cast<uint16_t>(
      parent.b - left.b - static_cast<uint16_t>(right_len) * left.a);
  return {a, b};
}

AdlerPair TabledAdler::SplitLeft(AdlerPair parent, AdlerPair right,
                                 size_t right_len) {
  uint16_t a = static_cast<uint16_t>(parent.a - right.a);
  uint16_t b = static_cast<uint16_t>(
      parent.b - right.b - static_cast<uint16_t>(right_len) * a);
  return {a, b};
}

}  // namespace fsx
