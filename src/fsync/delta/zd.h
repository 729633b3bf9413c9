// zdelta-style delta compressor: LZ parsing where copies may come from the
// reference file (at any offset, any length) or from already-produced
// target bytes, followed by Huffman entropy coding of ops, lengths, and
// addresses. Reference copy addresses are coded relative to a moving
// "expected position" pointer, which makes sequentially-continuing copies
// nearly free -- the trick that lets delta compressors exploit long runs of
// unchanged content.
#ifndef FSYNC_DELTA_ZD_H_
#define FSYNC_DELTA_ZD_H_

#include <span>

#include "fsync/delta/delta.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Encodes `target` against `reference`. Each of the `known` runs is
/// coded as one reference copy at its offset, extended while the bytes
/// past its end still match; the matcher parses only the gaps between
/// them. Without runs the whole target is parsed. Runs that are
/// unsorted, overlap, fall out of range or whose bytes differ are
/// InvalidArgument.
StatusOr<Bytes> ZdEncode(ByteSpan reference, ByteSpan target,
                         std::span<const KnownRun> known = {});

/// Decodes a zd delta; `reference` must equal the encoder's reference.
StatusOr<Bytes> ZdDecode(ByteSpan reference, ByteSpan delta);

}  // namespace fsx

#endif  // FSYNC_DELTA_ZD_H_
