// LBFS-style single-roundtrip synchronization over content-defined
// chunks: the server chunks the current file and sends one strong hash
// per chunk; the client answers with a bitmap of chunks it already holds
// (looked up in an index of its outdated file's chunks); the server sends
// the missing chunks' bytes, compressed. A baseline representing the
// "hash-based techniques from the OS community" family the paper compares
// its approach against conceptually (LBFS, value-based web caching).
#ifndef FSYNC_CDC_CDC_SYNC_H_
#define FSYNC_CDC_CDC_SYNC_H_

#include "fsync/cdc/chunker.h"
#include "fsync/net/channel.h"
#include "fsync/util/status.h"

namespace fsx {

/// CDC synchronization parameters.
struct CdcSyncParams {
  CdcParams chunking;
  /// Bytes of the per-chunk strong hash announced by the server.
  uint32_t hash_bytes = 6;
  /// Worker threads for chunk hashing on both sides (1 = serial).
  /// Execution knob only: wire traffic is bit-identical for any value.
  int num_threads = 1;
};

/// Outcome of a CDC synchronization session.
struct CdcSyncResult {
  Bytes reconstructed;
  TrafficStats stats;
  uint64_t chunks_total = 0;
  uint64_t chunks_missing = 0;
  bool fell_back_to_full_transfer = false;
};

/// Runs the chunk-exchange protocol over `channel`; always reconstructs
/// `current` exactly (whole-file fingerprint check with compressed full
/// transfer fallback, as elsewhere in the library).
StatusOr<CdcSyncResult> CdcSynchronize(ByteSpan outdated, ByteSpan current,
                                       const CdcSyncParams& params,
                                       SimulatedChannel& channel,
                                       obs::SyncObserver* obs = nullptr);

}  // namespace fsx

#endif  // FSYNC_CDC_CDC_SYNC_H_
