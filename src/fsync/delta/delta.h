// Common delta-compression API. A delta encodes `target` relative to a
// `reference` that the decoder also holds; file synchronization reduces to
// delta compression once the map-construction phase has established the
// common reference (paper Section 5.1).
#ifndef FSYNC_DELTA_DELTA_H_
#define FSYNC_DELTA_DELTA_H_

#include <cstdint>
#include <span>

#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Available delta codecs.
enum class DeltaCodec {
  kZd,      // LZ-over-reference with Huffman coding (zdelta-family)
  kVcdiff,  // byte-aligned ADD/COPY/RUN instruction stream (vcdiff-family)
  kBsdiff,  // suffix-array approximate matching, control/diff/extra
            // sections (bsdiff-family)
};

/// A stretch of the target the decoder already holds: target bytes
/// [target_pos, target_pos + length) equal reference bytes
/// [ref_pos, ref_pos + length). The map phase yields these.
struct KnownRun {
  uint64_t target_pos = 0;
  uint64_t ref_pos = 0;
  uint64_t length = 0;
};

/// Encodes `target` against `reference` with the chosen codec. `known`
/// (sorted by target position, disjoint) guides zd's parse; vcdiff and
/// bsdiff ignore it.
StatusOr<Bytes> DeltaEncode(DeltaCodec codec, ByteSpan reference,
                            ByteSpan target,
                            std::span<const KnownRun> known = {});

/// Decodes a delta produced by DeltaEncode with the same codec and
/// reference; returns the reconstructed target.
StatusOr<Bytes> DeltaDecode(DeltaCodec codec, ByteSpan reference,
                            ByteSpan delta);

}  // namespace fsx

#endif  // FSYNC_DELTA_DELTA_H_
