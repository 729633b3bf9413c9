// LZ77 tokenization with hash-chain match finding and one-step lazy
// matching, DEFLATE-style: 32 KiB window, match lengths 3..258.
#ifndef FSYNC_COMPRESS_LZ77_H_
#define FSYNC_COMPRESS_LZ77_H_

#include <cstdint>
#include <vector>

#include "fsync/util/bytes.h"

namespace fsx {

/// One LZ77 token: either a literal byte or a back-reference.
struct Lz77Token {
  bool is_match = false;
  uint8_t literal = 0;     // valid when !is_match
  uint32_t length = 0;     // valid when is_match, 3..258
  uint32_t distance = 0;   // valid when is_match, 1..32768
};

/// Produces the token stream for `data`.
std::vector<Lz77Token> Lz77Tokenize(ByteSpan data);

}  // namespace fsx

#endif  // FSYNC_COMPRESS_LZ77_H_
