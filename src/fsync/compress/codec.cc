#include "fsync/compress/codec.h"

#include <algorithm>
#include <optional>

#include "fsync/compress/huffman.h"

namespace fsx {

namespace compress_internal {

namespace {

constexpr int kNumLitLen = 286;  // 0..255 literals, 256 EOB, 257..285 lengths
constexpr int kNumDist = 30;
constexpr int kEob = 256;
constexpr int kMaxCodeBits = 15;

// DEFLATE length codes 257..285 -> base length and extra bits.
constexpr uint32_t kLengthBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11, 13,
                                      15, 17, 19, 23, 27, 31, 35, 43, 51, 59,
                                      67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr uint32_t kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                       1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                       4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance codes 0..29 -> base distance and extra bits.
constexpr uint32_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr uint32_t kDistExtra[30] = {0, 0, 0, 0, 1, 1, 2, 2,  3,  3,
                                     4, 4, 5, 5, 6, 6, 7, 7,  8,  8,
                                     9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

}  // namespace

void LengthCode(uint32_t length, uint32_t& code, uint32_t& extra_bits,
                uint32_t& extra_value) {
  // Linear scan is fine: 29 entries, dominated by the Huffman writes.
  for (int i = 28; i >= 0; --i) {
    if (length >= kLengthBase[i]) {
      code = static_cast<uint32_t>(i);
      extra_bits = kLengthExtra[i];
      extra_value = length - kLengthBase[i];
      return;
    }
  }
  code = 0;
  extra_bits = 0;
  extra_value = 0;
}

void DistanceCode(uint32_t distance, uint32_t& code, uint32_t& extra_bits,
                  uint32_t& extra_value) {
  for (int i = 29; i >= 0; --i) {
    if (distance >= kDistBase[i]) {
      code = static_cast<uint32_t>(i);
      extra_bits = kDistExtra[i];
      extra_value = distance - kDistBase[i];
      return;
    }
  }
  code = 0;
  extra_bits = 0;
  extra_value = 0;
}

StatusOr<uint32_t> LengthFromCode(uint32_t code, BitReader& in) {
  if (code >= 29) {
    return Status::DataLoss("bad length code");
  }
  FSYNC_ASSIGN_OR_RETURN(uint64_t extra, in.ReadBits(kLengthExtra[code]));
  return kLengthBase[code] + static_cast<uint32_t>(extra);
}

StatusOr<uint32_t> DistanceFromCode(uint32_t code, BitReader& in) {
  if (code >= 30) {
    return Status::DataLoss("bad distance code");
  }
  FSYNC_ASSIGN_OR_RETURN(uint64_t extra, in.ReadBits(kDistExtra[code]));
  return kDistBase[code] + static_cast<uint32_t>(extra);
}

void EncodeTokenBlock(const std::vector<Lz77Token>& tokens, BitWriter& out) {
  // Pass 1: symbol frequencies.
  std::vector<uint64_t> lit_freq(kNumLitLen, 0);
  std::vector<uint64_t> dist_freq(kNumDist, 0);
  for (const Lz77Token& t : tokens) {
    if (t.is_match) {
      uint32_t code, eb, ev;
      LengthCode(t.length, code, eb, ev);
      ++lit_freq[257 + code];
      DistanceCode(t.distance, code, eb, ev);
      ++dist_freq[code];
    } else {
      ++lit_freq[t.literal];
    }
  }
  ++lit_freq[kEob];

  std::vector<uint8_t> lit_len = BuildCodeLengths(lit_freq, kMaxCodeBits);
  std::vector<uint8_t> dist_len = BuildCodeLengths(dist_freq, kMaxCodeBits);

  WriteCodeLengthTable(lit_len, out);
  WriteCodeLengthTable(dist_len, out);

  HuffmanEncoder lit_enc = std::move(HuffmanEncoder::Build(lit_len)).value();
  // The distance code may be empty when there are no matches; in that case
  // it is never used below.
  HuffmanEncoder dist_enc = std::move(HuffmanEncoder::Build(dist_len)).value();

  for (const Lz77Token& t : tokens) {
    if (t.is_match) {
      uint32_t code, eb, ev;
      LengthCode(t.length, code, eb, ev);
      lit_enc.Encode(257 + code, out);
      out.WriteBits(ev, eb);
      DistanceCode(t.distance, code, eb, ev);
      dist_enc.Encode(code, out);
      out.WriteBits(ev, eb);
    } else {
      lit_enc.Encode(t.literal, out);
    }
  }
  lit_enc.Encode(kEob, out);
}

Status DecodeTokenBlock(BitReader& in, Bytes& out) {
  std::vector<uint8_t> lit_len;
  std::vector<uint8_t> dist_len;
  FSYNC_RETURN_IF_ERROR(ReadCodeLengthTable(kNumLitLen, in, lit_len));
  FSYNC_RETURN_IF_ERROR(ReadCodeLengthTable(kNumDist, in, dist_len));

  FSYNC_ASSIGN_OR_RETURN(HuffmanDecoder lit_dec,
                         HuffmanDecoder::Build(lit_len));
  bool have_dist = false;
  for (uint8_t l : dist_len) {
    have_dist |= l != 0;
  }
  std::optional<HuffmanDecoder> dist_dec;
  if (have_dist) {
    FSYNC_ASSIGN_OR_RETURN(HuffmanDecoder d, HuffmanDecoder::Build(dist_len));
    dist_dec.emplace(std::move(d));
  }

  for (;;) {
    FSYNC_ASSIGN_OR_RETURN(uint32_t sym, lit_dec.Decode(in));
    if (sym == kEob) {
      return Status::Ok();
    }
    if (sym < 256) {
      out.push_back(static_cast<uint8_t>(sym));
      continue;
    }
    FSYNC_ASSIGN_OR_RETURN(uint32_t length, LengthFromCode(sym - 257, in));
    if (!dist_dec.has_value()) {
      return Status::DataLoss("match token without distance code");
    }
    FSYNC_ASSIGN_OR_RETURN(uint32_t dcode, dist_dec->Decode(in));
    FSYNC_ASSIGN_OR_RETURN(uint32_t distance, DistanceFromCode(dcode, in));
    if (distance > out.size()) {
      return Status::DataLoss("back reference before start of output");
    }
    size_t start = out.size() - distance;
    for (uint32_t k = 0; k < length; ++k) {
      out.push_back(out[start + k]);  // byte-by-byte: overlap is defined
    }
  }
}

}  // namespace compress_internal

Bytes Compress(ByteSpan data) {
  using compress_internal::EncodeTokenBlock;

  BitWriter out;
  out.WriteVarint(data.size());
  if (data.empty()) {
    out.WriteBit(true);  // stored
    return out.Finish();
  }

  // Split long token streams into blocks with fresh Huffman tables so the
  // entropy coder adapts to content shifts (as DEFLATE does). Distances
  // may still reach across block boundaries: the decoder's output buffer
  // is continuous.
  constexpr size_t kTokensPerBlock = 1 << 16;
  std::vector<Lz77Token> tokens = Lz77Tokenize(data);
  BitWriter body;
  for (size_t start = 0; start < tokens.size();
       start += kTokensPerBlock) {
    size_t end = std::min(tokens.size(), start + kTokensPerBlock);
    std::vector<Lz77Token> chunk(tokens.begin() + start,
                                 tokens.begin() + end);
    body.WriteBit(end == tokens.size());  // last-block flag
    EncodeTokenBlock(chunk, body);
  }
  Bytes encoded = body.Finish();

  if (encoded.size() >= data.size()) {
    out.WriteBit(true);  // stored mode
    out.AlignToByte();
    out.WriteBytes(data);
    return out.Finish();
  }
  out.WriteBit(false);
  out.AlignToByte();
  out.WriteBytes(encoded);
  return out.Finish();
}

StatusOr<Bytes> Decompress(ByteSpan compressed) {
  using compress_internal::DecodeTokenBlock;

  BitReader in(compressed);
  FSYNC_ASSIGN_OR_RETURN(uint64_t raw_size, in.ReadVarint());
  if (raw_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("implausible decompressed size");
  }
  FSYNC_ASSIGN_OR_RETURN(bool stored, in.ReadBit());
  if (stored) {
    in.AlignToByte();
    FSYNC_ASSIGN_OR_RETURN(Bytes raw, in.ReadBytes(raw_size));
    return raw;
  }
  in.AlignToByte();
  Bytes out;
  out.reserve(raw_size);
  for (;;) {
    FSYNC_ASSIGN_OR_RETURN(bool last, in.ReadBit());
    FSYNC_RETURN_IF_ERROR(DecodeTokenBlock(in, out));
    if (last) {
      break;
    }
    if (out.size() > raw_size) {
      return Status::DataLoss("decompressed size overrun");
    }
  }
  if (out.size() != raw_size) {
    return Status::DataLoss("decompressed size mismatch");
  }
  return out;
}

}  // namespace fsx
