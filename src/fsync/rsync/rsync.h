// The classic rsync algorithm (Tridgell & MacKerras), the paper's primary
// baseline. The client splits its outdated file into fixed-size blocks and
// sends (weak rolling checksum, truncated strong checksum) pairs; the
// server slides a window over the current file, matches blocks at arbitrary
// byte offsets, and replies with a compressed stream of literals and block
// indices from which the client reconstructs the current file.
#ifndef FSYNC_RSYNC_RSYNC_H_
#define FSYNC_RSYNC_RSYNC_H_

#include <cstdint>
#include <vector>

#include "fsync/net/channel.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// rsync tuning parameters.
struct RsyncParams {
  /// Fixed block size; rsync's historical default is 700 bytes.
  uint32_t block_size = 700;
  /// Bytes of the MD4 digest sent per block (the paper notes 2 suffices).
  uint32_t strong_bytes = 2;
  /// Worker threads for signature generation (1 = serial). Execution
  /// knob only: wire traffic and results are bit-identical for any value
  /// (the determinism contract, checked by the threaded conformance
  /// suite).
  int num_threads = 1;
};

/// Signature of one client block.
struct BlockSignature {
  uint32_t weak = 0;    // rolling checksum
  uint64_t strong = 0;  // truncated MD4 (strong_bytes wide)
};

/// Computes signatures of the full blocks of `file` (tail bytes shorter
/// than `block_size` are not signed; they always travel as literals).
std::vector<BlockSignature> ComputeSignatures(ByteSpan file,
                                              const RsyncParams& params);

/// Serializes signatures into the client->server request payload.
Bytes EncodeSignatures(const std::vector<BlockSignature>& sigs,
                       const RsyncParams& params);

/// Parses a payload produced by EncodeSignatures.
StatusOr<std::vector<BlockSignature>> DecodeSignatures(
    ByteSpan payload, const RsyncParams& params);

/// Server side: matches `current` against the client's signatures and
/// produces the (optionally compressed) literal/index token stream.
Bytes RsyncServerEncode(ByteSpan current,
                        const std::vector<BlockSignature>& sigs,
                        const RsyncParams& params);

/// Client side: reconstructs the current file from its outdated copy and
/// the server's token stream.
StatusOr<Bytes> RsyncClientApply(ByteSpan outdated, ByteSpan stream,
                                 const RsyncParams& params);

/// Result of a full rsync session.
struct RsyncResult {
  Bytes reconstructed;
  TrafficStats stats;
  bool fell_back_to_full_transfer = false;
};

/// Runs a complete rsync session over `channel`: fingerprint exchange
/// (unchanged-file detection), signatures, token stream, reconstruction,
/// and whole-file verification with full-transfer fallback.
StatusOr<RsyncResult> RsyncSynchronize(ByteSpan outdated, ByteSpan current,
                                       const RsyncParams& params,
                                       SimulatedChannel& channel,
                                       obs::SyncObserver* obs = nullptr);

/// "Idealized rsync": runs RsyncSynchronize for each candidate block size
/// and returns the cheapest session (the per-file oracle the paper compares
/// against). If `candidates` is empty a default power-of-two sweep is used.
StatusOr<RsyncResult> RsyncBestBlockSize(
    ByteSpan outdated, ByteSpan current, const RsyncParams& base_params,
    const std::vector<uint32_t>& candidates = {});

}  // namespace fsx

#endif  // FSYNC_RSYNC_RSYNC_H_
