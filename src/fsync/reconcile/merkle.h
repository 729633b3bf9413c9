// File-set reconciliation: determine which files differ between two
// replicas with traffic proportional to the number of changed files, not
// the collection size. The paper sidesteps this ("we use a fingerprint
// for each file as this is efficient enough"), deferring to the
// changed-file-identification literature it surveys [1,4,27-30,36,42];
// this module implements the standard hash-trie approach from that line:
// both sides build a binary Merkle trie keyed by H(name) whose leaves
// hold (name, file-fingerprint) pairs; the endpoints walk the tries top
// down, descending only into subtrees whose hashes disagree.
#ifndef FSYNC_RECONCILE_MERKLE_H_
#define FSYNC_RECONCILE_MERKLE_H_

#include <string>
#include <vector>

#include "fsync/net/channel.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/util/status.h"

namespace fsx {

/// What the reconciliation discovered (from the client's perspective).
struct ReconcileResult {
  /// Files whose fingerprints differ or that only the server has: the
  /// files the client must fetch/update.
  std::vector<std::string> stale;
  /// Files only the client has: to be deleted under mirror semantics.
  std::vector<std::string> extra;
  /// This walk's traffic only (deltas of the channel's TrafficStats).
  TrafficStats stats;
  int rounds = 0;
};

/// Runs the trie walk between a client holding `client_files` and a
/// server holding `server_files`, over `channel`. Only each entry's
/// fingerprint rides the wire, is hashed, or is compared; size and mode
/// are ignored. Exact: the returned sets always equal the true
/// difference.
StatusOr<ReconcileResult> MerkleReconcile(const Manifest& client_files,
                                          const Manifest& server_files,
                                          const MerkleParams& params,
                                          SimulatedChannel& channel,
                                          obs::SyncObserver* obs = nullptr);

/// Baseline for comparison: the full fingerprint exchange used by
/// SyncCollection (client sends every (name, fingerprint)).
uint64_t FullExchangeBytes(const Manifest& client_files);

}  // namespace fsx

#endif  // FSYNC_RECONCILE_MERKLE_H_
