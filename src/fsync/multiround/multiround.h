// "Multiround rsync" (Langford 2001; Cormode-Paterson-Sahinalp-Vishkin
// 2000; Orlitsky-Viswanathan 2001): the pure recursive-partitioning
// protocol the paper adopts as its starting point, WITHOUT the paper's
// additional techniques (no decomposable hashes, no continuation hashes,
// no group-testing verification, no delta phase). The server sends one
// fixed-width hash per unresolved block each round; unmatched blocks are
// halved; blocks that reach the minimum size are transmitted literally
// (compressed). Serves as the intermediate baseline between classic
// rsync and the paper's full protocol.
#ifndef FSYNC_MULTIROUND_MULTIROUND_H_
#define FSYNC_MULTIROUND_MULTIROUND_H_

#include <cstdint>

#include "fsync/net/channel.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Parameters of the recursive-partitioning baseline.
struct MultiroundParams {
  uint32_t start_block_size = 2048;  // power of two
  uint32_t min_block_size = 256;     // below this, blocks go literal
  /// Rolling-hash bits used for position matching (<= 32).
  int weak_bits = 24;
  /// Extra strong-hash bits (MD5) verifying the candidate position.
  int strong_bits = 16;
  /// Worker threads for per-round block hashing and the client's rolling
  /// scans (1 = serial). Execution knob only: wire traffic is
  /// bit-identical for any value.
  int num_threads = 1;
};

/// Outcome of a multiround-rsync session.
struct MultiroundResult {
  Bytes reconstructed;
  TrafficStats stats;
  int rounds = 0;
  double matched_fraction = 0.0;  // of F_new bytes resolved via matches
  bool fell_back_to_full_transfer = false;
};

/// Runs the protocol over `channel`; always reconstructs `current`
/// exactly (fingerprint check + compressed full-transfer fallback).
StatusOr<MultiroundResult> MultiroundSynchronize(
    ByteSpan outdated, ByteSpan current, const MultiroundParams& params,
    SimulatedChannel& channel, obs::SyncObserver* obs = nullptr);

}  // namespace fsx

#endif  // FSYNC_MULTIROUND_MULTIROUND_H_
