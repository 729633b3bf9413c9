// General-purpose stream compressor (DEFLATE-family: LZ77 + dynamic
// canonical Huffman), with its own container format. Fills the role gzip
// plays in the paper: compressing rsync's literal/token stream, the
// delta-compressor back end, and the "compressed full transfer" baseline.
#ifndef FSYNC_COMPRESS_CODEC_H_
#define FSYNC_COMPRESS_CODEC_H_

#include "fsync/compress/lz77.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Compresses `data`. Falls back to stored mode when compression does not
/// help, so output is never much larger than the input (+ small header).
Bytes Compress(ByteSpan data);

/// Decompresses a buffer produced by Compress().
StatusOr<Bytes> Decompress(ByteSpan compressed);

namespace compress_internal {

/// Encodes an LZ77 token stream (plus end-of-block) with dynamic Huffman
/// codes into `out`. Exposed for the delta compressor, which shares the
/// token entropy coder. `extra_literals` biases nothing; tokens are taken
/// as-is.
void EncodeTokenBlock(const std::vector<Lz77Token>& tokens, BitWriter& out);

/// Decodes one token block into `out`, which already holds previously
/// decoded bytes (the window for back references).
Status DecodeTokenBlock(BitReader& in, Bytes& out);

/// DEFLATE length-code mapping: returns (code_index 0..28, extra_bits,
/// extra_value) for a match length 3..258.
void LengthCode(uint32_t length, uint32_t& code, uint32_t& extra_bits,
                uint32_t& extra_value);

/// DEFLATE distance-code mapping for distances 1..32768.
void DistanceCode(uint32_t distance, uint32_t& code, uint32_t& extra_bits,
                  uint32_t& extra_value);

/// Inverse mappings (decode side).
StatusOr<uint32_t> LengthFromCode(uint32_t code, BitReader& in);
StatusOr<uint32_t> DistanceFromCode(uint32_t code, BitReader& in);

}  // namespace compress_internal

}  // namespace fsx

#endif  // FSYNC_COMPRESS_CODEC_H_
