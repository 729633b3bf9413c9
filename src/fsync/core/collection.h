// Collection-level synchronization: maintaining a large replicated set of
// files (the paper's headline application). Per-file strong fingerprints
// are exchanged up front so unchanged files cost 16 bytes; changed files
// run the per-file protocol. Files are processed in batches, so protocol
// roundtrips are shared across the collection rather than paid per file
// (paper Section 2.3); the reported roundtrip count is the maximum over
// the batched per-file sessions.
#ifndef FSYNC_CORE_COLLECTION_H_
#define FSYNC_CORE_COLLECTION_H_

#include <map>
#include <string>

#include "fsync/cache/sync_cache.h"
#include "fsync/cdc/cdc_sync.h"
#include "fsync/multiround/multiround.h"
#include "fsync/core/config.h"
#include "fsync/core/session.h"
#include "fsync/net/channel.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/rsync/rsync.h"

namespace fsx {

/// A named file collection (client's or server's snapshot).
using Collection = std::map<std::string, Bytes>;

/// Aggregate outcome of synchronizing a collection.
struct CollectionSyncResult {
  Collection reconstructed;
  TrafficStats stats;  // bytes summed; roundtrips = max over batched files
  uint64_t files_total = 0;
  uint64_t files_unchanged = 0;
  uint64_t files_new = 0;  // absent at the client: full compressed transfer
  uint64_t map_server_to_client_bytes = 0;
  uint64_t map_client_to_server_bytes = 0;
  uint64_t delta_bytes = 0;
};

/// Synchronizes `client` to the server's `server` snapshot with the
/// paper's protocol. Returns per-collection traffic totals.
///
/// All collection entry points accept an optional `obs::SyncObserver*`:
/// when set, per-file sessions attribute their traffic to phases and the
/// observer's totals match the returned stats exactly (unchanged files'
/// excluded session traffic is rolled back in the observer too, and the
/// out-of-band fingerprint exchange is charged to the handshake phase).
///
/// The collection drivers also accept an optional `cache::SyncCache*`:
/// a shared server-side response cache that memoizes signatures, deltas,
/// and compressed payloads across sessions, so a fan-out of N clients
/// syncing the same snapshot computes each only once. Server-local:
/// wire bytes are identical with and without it (see docs/caching.md).
StatusOr<CollectionSyncResult> SyncCollection(
    const Collection& client, const Collection& server,
    const SyncConfig& config, obs::SyncObserver* obs = nullptr,
    cache::SyncCache* cache = nullptr);

/// Like SyncCollection, but genuinely multiplexes every per-file session
/// over the single `channel`: each protocol round sends ONE message per
/// direction carrying all live files' payloads, so the reported roundtrip
/// count is the true shared count (the paper's "many files processed
/// simultaneously" batching, implemented rather than approximated).
/// The channel also carries the name/fingerprint exchange and mirror
/// deletions.
StatusOr<CollectionSyncResult> SyncCollectionBatched(
    const Collection& client, const Collection& server,
    const SyncConfig& config, SimulatedChannel& channel,
    obs::SyncObserver* obs = nullptr, cache::SyncCache* cache = nullptr);

/// Tuning for the tree-level (manifest-reconciled) collection driver.
struct TreeSyncParams {
  /// Per-file session configuration for large stale files (its
  /// num_threads also parallelizes manifest hashing; thread count never
  /// changes a wire byte).
  SyncConfig config;
  /// Stale files at or below this server-side size skip per-file
  /// sessions and ship together in one compressed batch message. The
  /// default is tuned for high-latency links: below ~16 KB a delta
  /// session's extra roundtrips cost more than compressing the whole
  /// file into the pipelined bundle.
  uint64_t small_file_threshold = 16 * 1024;
  /// Optional shared server-side response cache (see SyncCollection).
  /// Keys ride the manifest content hashes, so entries from a previous
  /// snapshot are simply never looked up again after a file changes.
  cache::SyncCache* cache = nullptr;
};

/// Outcome of SyncCollectionTree. The per-file classification is
/// mutually exclusive: every server file is exactly one of unchanged,
/// adopted, small-batched, or sessioned.
struct TreeSyncResult {
  Collection reconstructed;
  TrafficStats stats;
  uint64_t files_total = 0;      ///< server-side file count
  uint64_t files_unchanged = 0;  ///< never individually touched the wire
  uint64_t files_new = 0;        ///< absent at the client before the sync
  uint64_t files_adopted = 0;    ///< satisfied locally by content-hash
                                 ///< adoption (zero literal wire bytes)
  uint64_t files_small = 0;      ///< shipped in the aggregate small batch
  uint64_t files_sessioned = 0;  ///< ran a multiplexed per-file session
  int manifest_rounds = 0;       ///< trie-walk roundtrips
  uint64_t manifest_bytes = 0;   ///< wire bytes spent on the walk
  uint64_t delta_bytes = 0;      ///< encoded delta payload in sessions
};

/// Whole-tree pipelined sync: reconciles the (path -> content-hash,
/// size, mode) manifests with a trie walk so unchanged files cost
/// O(set difference); adopts renamed/moved/copied content from paths the
/// client already holds (zero literal bytes); ships small stale files in
/// one compressed batch; and multiplexes the remaining per-file sessions
/// over `channel` exactly like SyncCollectionBatched. Wire output is
/// deterministic and independent of config.num_threads.
StatusOr<TreeSyncResult> SyncCollectionTree(const Collection& client,
                                            const Collection& server,
                                            const TreeSyncParams& params,
                                            SimulatedChannel& channel,
                                            obs::SyncObserver* obs = nullptr);

/// Same, using classic rsync per changed file (the baseline).
StatusOr<CollectionSyncResult> SyncCollectionRsync(
    const Collection& client, const Collection& server,
    const RsyncParams& params, obs::SyncObserver* obs = nullptr);

/// Same, using the LBFS-style content-defined-chunking protocol per
/// changed file (the "hash-based OS techniques" baseline).
StatusOr<CollectionSyncResult> SyncCollectionCdc(
    const Collection& client, const Collection& server,
    const CdcSyncParams& params, obs::SyncObserver* obs = nullptr);

/// Same, using the pure recursive-partitioning "multiround rsync"
/// baseline per changed file (the paper's prior-art starting point).
StatusOr<CollectionSyncResult> SyncCollectionMultiround(
    const Collection& client, const Collection& server,
    const MultiroundParams& params, obs::SyncObserver* obs = nullptr);

/// Baseline: transferring every changed file in full, uncompressed.
uint64_t CollectionFullTransferBytes(const Collection& client,
                                     const Collection& server);

/// Baseline: transferring every changed file in full, stream-compressed.
uint64_t CollectionCompressedTransferBytes(const Collection& client,
                                           const Collection& server);

/// Lower bound: per-file delta compression with both versions local.
StatusOr<uint64_t> CollectionDeltaBytes(const Collection& client,
                                        const Collection& server,
                                        DeltaCodec codec);

namespace core_internal {

/// Test entry points. SyncCollectionBatched and SyncCollectionTree hand
/// each per-file endpoint the fingerprints their handshake already
/// computed; these variants build the endpoints without them (each one
/// hashes its file again), which lets a test pin that the hints never
/// change a wire byte.
StatusOr<CollectionSyncResult> SyncCollectionBatchedWithoutHints(
    const Collection& client, const Collection& server,
    const SyncConfig& config, SimulatedChannel& channel);
StatusOr<TreeSyncResult> SyncCollectionTreeWithoutHints(
    const Collection& client, const Collection& server,
    const TreeSyncParams& params, SimulatedChannel& channel);

}  // namespace core_internal

}  // namespace fsx

#endif  // FSYNC_CORE_COLLECTION_H_
