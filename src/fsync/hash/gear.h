// GEAR-table rolling hash (the content-dependent-shingling family:
// FastCDC / "Scalable String Reconciliation by Recursive
// Content-Dependent Shingling"). The inner step is one table lookup,
// one shift, and one add —
//
//   h_{i+1} = (h_i << 1) + T[b_in]  (mod 2^64)
//
// — which pipelines far better than the Adler pair's two coupled 16-bit
// sums: no modular folds, no multiply, and the removal term for a fixed
// window W is a single subtraction of T[b_out] << W (identically zero
// once W >= 64, because the contribution has shifted out of the word).
// The hash of a window therefore depends on its trailing min(W, 64)
// bytes; with the 64-entry effective window and 64-bit state it is a
// strictly stronger per-position discriminator than the 32-bit Adler
// pair for the scan loop's prefilter probes.
//
// Trade-off: GEAR is neither composable nor decomposable, so the fsx
// endpoint's sibling-hash suppression (Section 5.5) cannot use it; it is
// offered as a config-gated alternative weak hash for the flat-scan
// protocols (MultiroundParams::use_gear), wire-compatible only with
// itself.
#ifndef FSYNC_HASH_GEAR_H_
#define FSYNC_HASH_GEAR_H_

#include <array>
#include <cstdint>

#include "fsync/util/bytes.h"

namespace fsx {

namespace hash_internal {

// splitmix64 — the table must be identical on both endpoints, so it is
// generated from a fixed seed rather than hard-coding 256 literals.
constexpr uint64_t Splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::array<uint64_t, 256> MakeGearTable() {
  std::array<uint64_t, 256> t{};
  uint64_t state = 0x6545636e72797047ull;  // arbitrary fixed seed
  for (int i = 0; i < 256; ++i) t[i] = Splitmix64(state);
  return t;
}

// In the header so the rolling step reaches it without a call.
inline constexpr std::array<uint64_t, 256> kGearTable = MakeGearTable();

}  // namespace hash_internal

/// Gear::Truncate with its mask computed once, for loops that truncate
/// many hashes to the same width.
class GearTruncation {
 public:
  /// `num_bits` in [1, 32].
  explicit GearTruncation(int num_bits)
      : mask_(num_bits >= 32 ? ~uint32_t{0}
                             : (uint32_t{1} << num_bits) - 1) {}

  uint32_t operator()(uint64_t hash) const {
    return static_cast<uint32_t>(hash) & mask_;
  }

 private:
  uint32_t mask_;
};

/// Namespace-style collection of GEAR hash operations.
class Gear {
 public:
  /// Hash of `block` (depends on its trailing min(size, 64) bytes).
  static uint64_t Hash(ByteSpan block);

  /// Low `num_bits` bits (num_bits in [1, 32]) — the wire-width form,
  /// symmetric with TabledAdler::Truncate.
  static uint32_t Truncate(uint64_t hash, int num_bits) {
    return GearTruncation(num_bits)(hash);
  }

  /// The 256-entry 64-bit substitution table (exposed for tests). Fixed
  /// pseudo-random constants: both endpoints must agree byte for byte.
  static const uint64_t* Table() { return hash_internal::kGearTable.data(); }
};

/// Rolling GEAR hash over a fixed-size window.
class GearWindow {
 public:
  /// Initializes over `window`, which defines the window size.
  explicit GearWindow(ByteSpan window)
      : hash_(Gear::Hash(window)),
        removal_shift_(window.size() < 64 ? static_cast<uint32_t>(window.size())
                                           : 0),
        removal_mask_(window.size() < 64 ? ~uint64_t{0} : 0) {}

  /// Slides by one byte: drops `out` (old first byte), appends `in`.
  void Roll(uint8_t out, uint8_t in) {
    // After the shift, `out`'s contribution sits at bit offset W (the
    // window size); for windows of 64+ bytes it has already left the
    // 64-bit state, and the zero mask makes removal free without a branch.
    const uint64_t removal =
        (hash_internal::kGearTable[out] << removal_shift_) & removal_mask_;
    hash_ = (hash_ << 1) + hash_internal::kGearTable[in] - removal;
  }

  /// True for windows of 64+ bytes, whose leaving byte has always
  /// shifted out of the state already; RollIn is then a complete step.
  bool removal_free() const { return removal_mask_ == 0; }

  /// Roll for a removal_free() window: appends `in`, and the byte that
  /// leaves needs no load at all.
  void RollIn(uint8_t in) {
    hash_ = (hash_ << 1) + hash_internal::kGearTable[in];
  }

  /// Current hash value.
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0;
  uint32_t removal_shift_ = 0;  // W, or 0 when W >= 64
  uint64_t removal_mask_ = 0;   // all ones when W < 64, else zero
};

}  // namespace fsx

#endif  // FSYNC_HASH_GEAR_H_
