#include "fsync/delta/zd.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "fsync/compress/huffman.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Op alphabet: 0..255 literals, 256 EOB, then length-group symbols for
// copies from the reference and from the target prefix.
constexpr int kEob = 256;
constexpr int kLenGroups = 34;  // supports lengths up to kMinMatch + 2^33
constexpr int kRefOpBase = 257;
constexpr int kTgtOpBase = kRefOpBase + kLenGroups;
constexpr int kNumOps = kTgtOpBase + kLenGroups;
constexpr int kAddrGroups = 48;
constexpr int kMaxCodeBits = 15;

constexpr uint32_t kHashBits = 16;
constexpr uint32_t kHashSize = 1u << kHashBits;
constexpr uint32_t kMinHashable = 4;  // bytes hashed per position
constexpr uint32_t kMaxChain = 64;    // hash-chain probes per candidate source
// Shortest copy worth encoding. Copy lengths are coded as an offset from
// it, so the encoder and decoder must agree on it.
constexpr uint32_t kMinMatch = 4;

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) |
               (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16) |
               (static_cast<uint32_t>(p[3]) << 24);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

// Group index of v >= 1: floor(log2(v)).
inline int GroupOf(uint64_t v) {
  return std::bit_width(v) - 1;
}

inline uint64_t ZigZag(int64_t d) {
  return (static_cast<uint64_t>(d) << 1) ^
         static_cast<uint64_t>(d >> 63);
}

inline int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

// One parsed instruction of the delta.
struct ZdToken {
  enum Kind { kLiteral, kRefCopy, kTgtCopy } kind = kLiteral;
  uint8_t literal = 0;
  uint64_t length = 0;
  uint64_t pos = 0;  // absolute position in reference / target prefix
};

// Hash-chain index over a fixed buffer. Positions are 32-bit; positions
// past kMaxIndexed are never inserted, so a buffer of 4 GiB or more still
// encodes (its tail is only reachable by extending earlier matches).
class ChainIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr uint64_t kMaxIndexed = kNone - 1;

  explicit ChainIndex(ByteSpan data)
      : data_(data),
        limit_(std::min<uint64_t>(data.size(), kMaxIndexed + 1)),
        head_(kHashSize, kNone),
        // Left uninitialised: Next() only reads inserted positions.
        chain_(std::make_unique_for_overwrite<uint32_t[]>(limit_)) {}

  /// Inserts position `pos` (requires pos + 4 <= size).
  void Insert(size_t pos) {
    if (pos >= limit_) {
      return;
    }
    uint32_t h = HashAt(data_.data() + pos);
    chain_[pos] = head_[h];
    head_[h] = static_cast<uint32_t>(pos);
  }

  /// Builds the full index.
  void InsertAll() {
    if (data_.size() < kMinHashable) {
      return;
    }
    for (size_t i = 0; i + kMinHashable <= data_.size(); ++i) {
      Insert(i);
    }
  }

  uint32_t Head(const uint8_t* key) const { return head_[HashAt(key)]; }
  uint32_t Next(uint32_t pos) const { return chain_[pos]; }

 private:
  ByteSpan data_;
  size_t limit_;
  std::vector<uint32_t> head_;
  std::unique_ptr<uint32_t[]> chain_;
};

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Length of the common prefix of a and b, at most max_len; compares
// eight bytes at a time.
inline uint64_t MatchLength(const uint8_t* a, const uint8_t* b,
                            uint64_t max_len) {
  uint64_t len = 0;
  for (; len + 8 <= max_len; len += 8) {
    uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      int bits = std::endian::native == std::endian::little
                     ? std::countr_zero(diff)
                     : std::countl_zero(diff);
      return len + static_cast<uint64_t>(bits / 8);
    }
  }
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// Known runs must be sorted by target position, disjoint, in bounds of
// both buffers, and true: a run that breaks any of these would make the
// parse emit a wrong copy.
Status CheckKnownRuns(ByteSpan reference, ByteSpan target,
                      std::span<const KnownRun> known) {
  uint64_t prev_end = 0;
  for (const KnownRun& run : known) {
    if (run.target_pos < prev_end) {
      return Status::InvalidArgument(
          "ZdEncode: known runs are unsorted or overlap");
    }
    if (run.length > target.size() ||
        run.target_pos > target.size() - run.length ||
        run.length > reference.size() ||
        run.ref_pos > reference.size() - run.length) {
      return Status::InvalidArgument("ZdEncode: known run out of range");
    }
    if (run.length > 0 &&
        std::memcmp(reference.data() + run.ref_pos,
                    target.data() + run.target_pos, run.length) != 0) {
      return Status::InvalidArgument(
          "ZdEncode: known run differs from the reference");
    }
    prev_end = run.target_pos + run.length;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Bytes> ZdEncode(ByteSpan reference, ByteSpan target,
                         std::span<const KnownRun> known) {
  FSYNC_RETURN_IF_ERROR(CheckKnownRuns(reference, target, known));
  BitWriter out;
  out.WriteVarint(target.size());
  out.WriteVarint(reference.size());

  if (target.empty()) {
    out.WriteBit(true);  // stored (empty)
    return out.Finish();
  }

  // --- Parse ---
  ChainIndex ref_index(reference);
  ref_index.InsertAll();
  ChainIndex tgt_index(target);

  std::vector<ZdToken> tokens;
  tokens.reserve(target.size() / 16 + 8);

  const uint8_t* tgt = target.data();
  const size_t n = target.size();
  uint64_t expected_ref = 0;  // predicted next reference copy position

  // Finds the best copy starting at `pos`; returns a literal token when
  // nothing reaches kMinMatch. Prefers, at equal length: a ref copy
  // continuing at expected_ref, then any ref copy, then a tgt copy
  // (whose address codes slightly larger).
  auto find_best = [&](size_t pos) -> ZdToken {
    ZdToken best{ZdToken::kLiteral, tgt[pos], 0, 0};
    uint64_t best_len = kMinMatch - 1;
    int best_rank = -1;
    uint64_t max_len_here = n - pos;
    if (pos + kMinHashable > n) {
      return best;
    }
    // A candidate whose byte at best_len differs cannot be longer than
    // best; it is skipped unless it could still win the tie on rank.
    uint32_t probes = kMaxChain;
    for (uint32_t cand = ref_index.Head(tgt + pos);
         cand != ChainIndex::kNone && probes-- > 0;
         cand = ref_index.Next(cand)) {
      uint64_t cap = std::min<uint64_t>(max_len_here, reference.size() - cand);
      int rank = (cand == expected_ref) ? 2 : 1;
      bool may_tie = best_rank >= 0 && rank > best_rank;
      if (!may_tie && (best_len >= cap ||
                       reference[cand + best_len] != tgt[pos + best_len])) {
        continue;
      }
      uint64_t len = MatchLength(reference.data() + cand, tgt + pos, cap);
      if (len >= kMinMatch &&
          (len > best_len || (len == best_len && rank > best_rank))) {
        best_len = len;
        best_rank = rank;
        best = {ZdToken::kRefCopy, 0, len, cand};
      }
    }
    probes = kMaxChain;
    for (uint32_t cand = tgt_index.Head(tgt + pos);
         cand != ChainIndex::kNone && probes-- > 0;
         cand = tgt_index.Next(cand)) {
      if (best_len >= max_len_here ||
          tgt[cand + best_len] != tgt[pos + best_len]) {
        continue;
      }
      uint64_t len = MatchLength(tgt + cand, tgt + pos, max_len_here);
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_rank = 0;
        best = {ZdToken::kTgtCopy, 0, len, cand};
      }
    }
    return best;
  };

  size_t pos = 0;
  size_t run = 0;  // first known run that ends after pos
  while (pos < n) {
    // Inside a known run: one reference copy at its known offset, carried
    // past the run's end while the bytes still match. Its positions never
    // enter the target index; the reference index already holds them.
    while (run < known.size() &&
           known[run].target_pos + known[run].length <= pos) {
      ++run;
    }
    if (run < known.size() && known[run].target_pos <= pos) {
      uint64_t skip = pos - known[run].target_pos;
      uint64_t ref_pos = known[run].ref_pos + skip;
      uint64_t len = known[run].length - skip;
      len += MatchLength(reference.data() + ref_pos + len, tgt + pos + len,
                         std::min<uint64_t>(n - pos - len,
                                            reference.size() - ref_pos - len));
      if (len >= kMinMatch) {
        tokens.push_back({ZdToken::kRefCopy, 0, len, ref_pos});
        expected_ref = ref_pos + len;
        pos += len;
        continue;
      }
      // Too short to be a copy: parse it like a gap.
    }

    ZdToken best = find_best(pos);

    // One-step lazy evaluation (as in zlib): for short matches, a longer
    // match one byte later often produces a better parse.
    if (best.kind != ZdToken::kLiteral && best.length < 64 &&
        pos + 1 < n) {
      if (pos + kMinHashable <= n) {
        tgt_index.Insert(pos);
      }
      ZdToken next = find_best(pos + 1);
      if (next.kind != ZdToken::kLiteral &&
          next.length > best.length + 1) {
        tokens.push_back({ZdToken::kLiteral, tgt[pos], 0, 0});
        ++pos;
        continue;  // `next` is rediscovered at the new position
      }
      if (best.kind == ZdToken::kRefCopy) {
        expected_ref = best.pos + best.length;
      }
      size_t end = pos + best.length;
      for (size_t i = pos + 1; i < end && i + kMinHashable <= n; ++i) {
        tgt_index.Insert(i);
      }
      tokens.push_back(best);
      pos = end;
      continue;
    }

    if (best.kind == ZdToken::kLiteral) {
      if (pos + kMinHashable <= n) {
        tgt_index.Insert(pos);
      }
      tokens.push_back(best);
      ++pos;
    } else {
      if (best.kind == ZdToken::kRefCopy) {
        expected_ref = best.pos + best.length;
      }
      size_t end = pos + best.length;
      for (size_t i = pos; i < end && i + kMinHashable <= n; ++i) {
        tgt_index.Insert(i);
      }
      tokens.push_back(best);
      pos = end;
    }
  }

  // --- Entropy-code ---
  std::vector<uint64_t> op_freq(kNumOps, 0);
  std::vector<uint64_t> addr_freq(kAddrGroups, 0);
  std::vector<uint64_t> dist_freq(kAddrGroups, 0);
  uint64_t exp_ref = 0;
  for (const ZdToken& t : tokens) {
    switch (t.kind) {
      case ZdToken::kLiteral:
        ++op_freq[t.literal];
        break;
      case ZdToken::kRefCopy: {
        uint64_t v = t.length - kMinMatch + 1;
        ++op_freq[kRefOpBase + GroupOf(v)];
        int64_t d = static_cast<int64_t>(t.pos) -
                    static_cast<int64_t>(exp_ref);
        ++addr_freq[GroupOf(ZigZag(d) + 1)];
        exp_ref = t.pos + t.length;
        break;
      }
      case ZdToken::kTgtCopy: {
        uint64_t v = t.length - kMinMatch + 1;
        ++op_freq[kTgtOpBase + GroupOf(v)];
        // distance from current target position; recomputed at decode
        break;
      }
    }
  }
  // Tally target distances in a second pass (needs running position).
  {
    uint64_t p = 0;
    for (const ZdToken& t : tokens) {
      if (t.kind == ZdToken::kTgtCopy) {
        ++dist_freq[GroupOf(p - t.pos)];
      }
      p += (t.kind == ZdToken::kLiteral) ? 1 : t.length;
    }
  }
  ++op_freq[kEob];

  std::vector<uint8_t> op_len = BuildCodeLengths(op_freq, kMaxCodeBits);
  std::vector<uint8_t> addr_len = BuildCodeLengths(addr_freq, kMaxCodeBits);
  std::vector<uint8_t> dist_len = BuildCodeLengths(dist_freq, kMaxCodeBits);

  BitWriter body;
  WriteCodeLengthTable(op_len, body);
  WriteCodeLengthTable(addr_len, body);
  WriteCodeLengthTable(dist_len, body);

  HuffmanEncoder op_enc = std::move(HuffmanEncoder::Build(op_len)).value();
  HuffmanEncoder addr_enc =
      std::move(HuffmanEncoder::Build(addr_len)).value();
  HuffmanEncoder dist_enc =
      std::move(HuffmanEncoder::Build(dist_len)).value();

  exp_ref = 0;
  uint64_t out_pos = 0;
  for (const ZdToken& t : tokens) {
    switch (t.kind) {
      case ZdToken::kLiteral:
        op_enc.Encode(t.literal, body);
        out_pos += 1;
        break;
      case ZdToken::kRefCopy: {
        uint64_t v = t.length - kMinMatch + 1;
        int g = GroupOf(v);
        op_enc.Encode(kRefOpBase + g, body);
        body.WriteBits(v - (uint64_t{1} << g), g);
        uint64_t z1 = ZigZag(static_cast<int64_t>(t.pos) -
                             static_cast<int64_t>(exp_ref)) + 1;
        int ag = GroupOf(z1);
        addr_enc.Encode(ag, body);
        body.WriteBits(z1 - (uint64_t{1} << ag), ag);
        exp_ref = t.pos + t.length;
        out_pos += t.length;
        break;
      }
      case ZdToken::kTgtCopy: {
        uint64_t v = t.length - kMinMatch + 1;
        int g = GroupOf(v);
        op_enc.Encode(kTgtOpBase + g, body);
        body.WriteBits(v - (uint64_t{1} << g), g);
        uint64_t dist = out_pos - t.pos;
        int dg = GroupOf(dist);
        dist_enc.Encode(dg, body);
        body.WriteBits(dist - (uint64_t{1} << dg), dg);
        out_pos += t.length;
        break;
      }
    }
  }
  op_enc.Encode(kEob, body);
  Bytes encoded = body.Finish();

  if (encoded.size() >= target.size()) {
    out.WriteBit(true);  // stored mode wins
    out.AlignToByte();
    out.WriteBytes(target);
    return out.Finish();
  }
  out.WriteBit(false);
  out.AlignToByte();
  out.WriteBytes(encoded);
  return out.Finish();
}

StatusOr<Bytes> ZdDecode(ByteSpan reference, ByteSpan delta) {
  BitReader in(delta);
  FSYNC_ASSIGN_OR_RETURN(uint64_t target_size, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(uint64_t ref_size, in.ReadVarint());
  if (ref_size != reference.size()) {
    return Status::InvalidArgument(
        "ZdDecode: reference size does not match the delta");
  }
  if (target_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("ZdDecode: implausible target size");
  }
  FSYNC_ASSIGN_OR_RETURN(bool stored, in.ReadBit());
  in.AlignToByte();
  if (stored) {
    FSYNC_ASSIGN_OR_RETURN(Bytes raw, in.ReadBytes(target_size));
    return raw;
  }

  std::vector<uint8_t> op_len, addr_len, dist_len;
  FSYNC_RETURN_IF_ERROR(ReadCodeLengthTable(kNumOps, in, op_len));
  FSYNC_RETURN_IF_ERROR(ReadCodeLengthTable(kAddrGroups, in, addr_len));
  FSYNC_RETURN_IF_ERROR(ReadCodeLengthTable(kAddrGroups, in, dist_len));

  FSYNC_ASSIGN_OR_RETURN(HuffmanDecoder op_dec, HuffmanDecoder::Build(op_len));
  // Address/distance decoders are optional (a delta may contain no copies
  // of one kind).
  auto addr_dec_or = HuffmanDecoder::Build(addr_len);
  auto dist_dec_or = HuffmanDecoder::Build(dist_len);

  // `target_size` is the peer's number: reserve no more than the
  // reference plus eight bytes per delta byte, and let a larger target
  // grow as its output arrives.
  Bytes out;
  out.reserve(std::min<uint64_t>(target_size,
                                 reference.size() + 8 * delta.size()));
  uint64_t exp_ref = 0;

  for (;;) {
    FSYNC_ASSIGN_OR_RETURN(uint32_t op, op_dec.Decode(in));
    if (op == kEob) {
      break;
    }
    if (op < 256) {
      if (out.size() >= target_size) {
        return Status::DataLoss("ZdDecode: output overrun");
      }
      out.push_back(static_cast<uint8_t>(op));
      continue;
    }
    bool is_ref = op < static_cast<uint32_t>(kTgtOpBase);
    int g = static_cast<int>(op) - (is_ref ? kRefOpBase : kTgtOpBase);
    if (g < 0 || g >= kLenGroups) {
      return Status::DataLoss("ZdDecode: bad op symbol");
    }
    FSYNC_ASSIGN_OR_RETURN(uint64_t extra, in.ReadBits(g));
    uint64_t length = (uint64_t{1} << g) + extra + kMinMatch - 1;
    if (out.size() + length > target_size) {
      return Status::DataLoss("ZdDecode: copy overruns target size");
    }
    if (is_ref) {
      if (!addr_dec_or.ok()) {
        return Status::DataLoss("ZdDecode: ref copy without address code");
      }
      FSYNC_ASSIGN_OR_RETURN(uint32_t ag, addr_dec_or.value().Decode(in));
      if (ag >= kAddrGroups) {
        return Status::DataLoss("ZdDecode: bad address group");
      }
      FSYNC_ASSIGN_OR_RETURN(uint64_t aextra, in.ReadBits(ag));
      uint64_t z1 = (uint64_t{1} << ag) + aextra;
      int64_t d = UnZigZag(z1 - 1);
      int64_t pos = static_cast<int64_t>(exp_ref) + d;
      if (pos < 0 ||
          static_cast<uint64_t>(pos) + length > reference.size()) {
        return Status::DataLoss("ZdDecode: reference copy out of range");
      }
      Append(out, reference.subspan(static_cast<size_t>(pos), length));
      exp_ref = static_cast<uint64_t>(pos) + length;
    } else {
      if (!dist_dec_or.ok()) {
        return Status::DataLoss("ZdDecode: tgt copy without distance code");
      }
      FSYNC_ASSIGN_OR_RETURN(uint32_t dg, dist_dec_or.value().Decode(in));
      if (dg >= kAddrGroups) {
        return Status::DataLoss("ZdDecode: bad distance group");
      }
      FSYNC_ASSIGN_OR_RETURN(uint64_t dextra, in.ReadBits(dg));
      uint64_t dist = (uint64_t{1} << dg) + dextra;
      if (dist == 0 || dist > out.size()) {
        return Status::DataLoss("ZdDecode: target copy out of range");
      }
      size_t start = out.size() - dist;
      for (uint64_t k = 0; k < length; ++k) {
        out.push_back(out[start + k]);  // may overlap; byte-wise is correct
      }
    }
  }
  if (out.size() != target_size) {
    return Status::DataLoss("ZdDecode: size mismatch after decode");
  }
  return out;
}

}  // namespace fsx
