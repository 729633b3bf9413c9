// The paper's "modified Adler" hash: a rolling hash that is also composable
// and decomposable, so the hash of a right sibling block can be derived from
// the hashes of the parent block and the left sibling, halving the bits the
// server must transmit per level of the recursive splitting (Section 5.5).
//
// Definition over a block s[0..L):
//   a(s) = sum_i T[s_i]              mod 2^16
//   b(s) = sum_i (L - i) * T[s_i]    mod 2^16
// where T is a fixed pseudo-random byte-substitution table that defeats the
// plain Adler checksum's weakness on low-entropy and permuted inputs.
//
// Identities (parent p = left l ++ right r, |r| = n):
//   a(p) = a(l) + a(r)
//   b(p) = b(l) + n * a(l) + b(r)
// These are linear, so they also hold modulo 2^k for any k <= 16: truncating
// a transmitted hash to its low-order bits preserves decomposability
// ("bit-prefix decomposable" in the paper's terms).
#ifndef FSYNC_HASH_TABLED_ADLER_H_
#define FSYNC_HASH_TABLED_ADLER_H_

#include <array>
#include <cassert>
#include <cstdint>

#include "fsync/util/bytes.h"

namespace fsx {

namespace hash_internal {

// 256-entry substitution table of pseudo-random 16-bit values, generated
// at compile time from a fixed splitmix64 stream so both endpoints agree
// byte-for-byte. Lives in the header so the rolling step reaches it
// without a call.
constexpr std::array<uint16_t, 256> MakeTabledAdlerTable() {
  std::array<uint16_t, 256> table{};
  uint64_t x = 0x9E3779B97F4A7C15ULL;  // fixed seed: hash tables must match
  for (int i = 0; i < 256; ++i) {
    uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    table[i] = static_cast<uint16_t>(z);
  }
  return table;
}

inline constexpr std::array<uint16_t, 256> kTabledAdlerTable =
    MakeTabledAdlerTable();

}  // namespace hash_internal

/// The (a, b) state of the tabled-Adler hash of one block.
struct AdlerPair {
  uint16_t a = 0;
  uint16_t b = 0;

  friend bool operator==(const AdlerPair&, const AdlerPair&) = default;
};

/// TabledAdler::Truncate with its masks computed once, for loops that
/// pack many pairs to the same width (the scan computes one per byte).
class AdlerTruncation {
 public:
  /// `num_bits` in [1, 32].
  explicit AdlerTruncation(int num_bits)
      : a_bits_(num_bits / 2),
        a_mask_((1u << (num_bits / 2)) - 1),
        b_mask_((1u << (num_bits - num_bits / 2)) - 1) {
    assert(num_bits >= 1 && num_bits <= 32);
  }

  uint32_t operator()(AdlerPair pair) const { return Pack(pair.a, pair.b); }

  /// Packs the pair held in the low 16 bits of `a` and `b`; higher bits
  /// are ignored (the masks are at most 16 bits wide).
  uint32_t Pack(uint32_t a, uint32_t b) const {
    return ((b & b_mask_) << a_bits_) | (a & a_mask_);
  }

 private:
  int a_bits_;
  uint32_t a_mask_;
  uint32_t b_mask_;
};

/// Namespace-style collection of tabled-Adler operations.
class TabledAdler {
 public:
  /// Full-width hash of `block`.
  static AdlerPair Hash(ByteSpan block);

  /// Hash of the concatenation left++right. `right_len` is |right|.
  static AdlerPair Compose(AdlerPair left, AdlerPair right, size_t right_len);

  /// Hash of the right sibling given parent = left ++ right.
  static AdlerPair SplitRight(AdlerPair parent, AdlerPair left,
                              size_t right_len);

  /// Hash of the left sibling given parent = left ++ right.
  static AdlerPair SplitLeft(AdlerPair parent, AdlerPair right,
                             size_t right_len);

  /// Packs `pair` into a `num_bits`-wide value (num_bits in [1, 32]):
  /// the low ceil(n/2) bits of b concatenated above the low floor(n/2) bits
  /// of a. Truncations of both components are linear, so packed values of
  /// derived (composed/decomposed) pairs still agree when widths match.
  static uint32_t Truncate(AdlerPair pair, int num_bits) {
    return AdlerTruncation(num_bits)(pair);
  }

  /// The byte-substitution table (exposed for tests).
  static const uint16_t* SubstitutionTable() {
    return hash_internal::kTabledAdlerTable.data();
  }
};

/// Rolling tabled-Adler over a fixed-size window.
class TabledAdlerWindow {
 public:
  /// Initializes over `window`, which defines the window size.
  explicit TabledAdlerWindow(ByteSpan window)
      : window_size_(static_cast<uint32_t>(window.size())) {
    const AdlerPair p = TabledAdler::Hash(window);
    a_ = p.a;
    b_ = p.b;
  }

  /// Slides by one byte: drops `out` (old first byte), appends `in`.
  void Roll(uint8_t out, uint8_t in) {
    const uint32_t t_out = hash_internal::kTabledAdlerTable[out];
    a_ += hash_internal::kTabledAdlerTable[in] - t_out;
    b_ += a_ - window_size_ * t_out;
  }

  /// Current hash pair.
  AdlerPair pair() const {
    return {static_cast<uint16_t>(a_), static_cast<uint16_t>(b_)};
  }

  /// truncate(pair()), without narrowing the sums first.
  uint32_t Key(const AdlerTruncation& truncate) const {
    return truncate.Pack(a_, b_);
  }

 private:
  // The sums run mod 2^32; only their low 16 bits are the pair, and
  // those never depend on the high bits, so nothing is folded per step.
  uint32_t a_ = 0;
  uint32_t b_ = 0;
  uint32_t window_size_ = 0;
};

}  // namespace fsx

#endif  // FSYNC_HASH_TABLED_ADLER_H_
