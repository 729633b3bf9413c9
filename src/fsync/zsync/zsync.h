// zsync-style synchronization: the inverse deployment of rsync for
// HTTP-like servers. The publisher precomputes a small *control file*
// (per-block rolling + strong hashes of the current file at one fixed
// block size); the client downloads it, matches blocks against its local
// outdated copy entirely client-side, and then requests only the byte
// ranges it misses. The server stays dumb (static file + range requests),
// which is the operational niche rsync and the paper's interactive
// protocol cannot serve. Included as the fixed-block one-way comparator
// to the recursive hash cast (core/broadcast.h).
#ifndef FSYNC_ZSYNC_ZSYNC_H_
#define FSYNC_ZSYNC_ZSYNC_H_

#include <array>
#include <cstdint>
#include <vector>

#include "fsync/net/channel.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Control-file shape.
struct ZsyncParams {
  uint32_t block_size = 2048;
  int weak_bits = 24;    // rolling hash per block (<= 32)
  int strong_bits = 24;  // MD5 bits per block, verified client-side
  /// Worker threads for control-file hashing and the client-side block
  /// scan (1 = serial). Execution knob only — never encoded in the
  /// control file; any value yields bit-identical wire traffic.
  int num_threads = 1;
};

/// Builds the control file for `current` (published once, fetched by
/// every client).
StatusOr<Bytes> MakeZsyncControl(ByteSpan current,
                                 const ZsyncParams& params);

/// What the client worked out locally from the control file.
struct ZsyncPlan {
  uint64_t new_size = 0;
  std::array<uint8_t, 16> fingerprint{};
  uint32_t block_size = 0;
  /// Per block of the new file: source position in the *old* file, or
  /// kMissing when the client must fetch it.
  static constexpr uint64_t kMissing = ~uint64_t{0};
  std::vector<uint64_t> sources;

  /// Missing byte ranges of the new file, coalesced and in order.
  struct Range {
    uint64_t begin = 0;
    uint64_t length = 0;
  };
  std::vector<Range> Missing() const;

  /// Fraction of the new file the client already holds.
  double CoveredFraction() const;
};

/// Client side: matches the control file against `outdated`.
/// `num_threads` shards the rolling scan (results are identical for any
/// value; the control file fully determines matching parameters).
StatusOr<ZsyncPlan> PlanFromControl(ByteSpan outdated, ByteSpan control,
                                    int num_threads = 1);

/// The client's range request (coalesced missing ranges, varint-coded).
Bytes EncodeRangeRequest(const ZsyncPlan& plan);

/// Server side: returns the requested ranges of `current`, compressed.
StatusOr<Bytes> ServeRanges(ByteSpan current, ByteSpan request);

/// Client side: reassembles the new file and verifies its fingerprint.
StatusOr<Bytes> ApplyZsync(ByteSpan outdated, const ZsyncPlan& plan,
                           ByteSpan payload);

/// Result of a full zsync session run over a simulated channel.
struct ZsyncSyncResult {
  Bytes reconstructed;
  TrafficStats stats;
  double covered_fraction = 0.0;
  bool fell_back_to_full_transfer = false;
};

/// Runs the whole zsync deployment over `channel` with the usual cost
/// accounting: the client requests the control file, matches it locally,
/// asks for the missing ranges, and reassembles. A fingerprint mismatch
/// after reassembly (e.g. a truncated-hash collision in the plan) falls
/// back to a verified compressed full transfer, so on success the result
/// is always byte-exact.
StatusOr<ZsyncSyncResult> ZsyncSynchronize(ByteSpan outdated,
                                           ByteSpan current,
                                           const ZsyncParams& params,
                                           SimulatedChannel& channel,
                                           obs::SyncObserver* obs = nullptr);

}  // namespace fsx

#endif  // FSYNC_ZSYNC_ZSYNC_H_
