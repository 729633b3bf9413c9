// Collection-level synchronization: maintaining a large replicated set of
// files (the paper's headline application). SyncCollection and the
// comparator drivers exchange per-file strong fingerprints up front so an
// unchanged file costs 16 bytes, then run one per-file protocol per
// changed file. SyncCollectionTree, the driver the CLI and the daemon
// run, reconciles manifests so unchanged files cost O(set difference)
// and shares protocol rounds across the whole collection (paper Section
// 2.3): one message per direction per round for every live file.
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

/// Tuning for the tree-level (manifest-reconciled) collection driver.
struct TreeSyncParams {
  /// Per-file session configuration for large stale files (its
  /// num_threads also parallelizes manifest hashing; thread count never
  /// changes a wire byte).
  SyncConfig config;
  /// Stale files at or below this server-side size skip per-file
  /// sessions and ship together in one compressed batch message, which
  /// rides the plan's roundtrip. Above ~4 KiB a delta session's bytes
  /// win: a 16 KiB split nearly doubled the bytes of a 152-file release
  /// upgrade (EXPERIMENTS.md, "One tree driver"). 0 sends every stale
  /// file through a session.
  uint64_t small_file_threshold = 4 * 1024;
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
/// over `channel`, one message per direction per round for all of them,
/// then one exchange per ladder rung for the sessions that need it. Wire
/// output is deterministic and independent of config.num_threads.
StatusOr<TreeSyncResult> SyncCollectionTree(const Collection& client,
                                            const Collection& server,
                                            const TreeSyncParams& params,
                                            SimulatedChannel& channel,
                                            obs::SyncObserver* obs = nullptr);

/// SyncCollectionTree with `config` and `cache` and the default bundle
/// threshold, its figures copied into a CollectionSyncResult. It exists
/// only for perfbench's `release-upgrade` driver, which cannot change
/// outside a benchmark change; that change points `release-upgrade` at
/// SyncCollectionTree and deletes this adapter.
StatusOr<CollectionSyncResult> SyncCollectionBatched(
    const Collection& client, const Collection& server,
    const SyncConfig& config, SimulatedChannel& channel,
    obs::SyncObserver* obs = nullptr, cache::SyncCache* cache = nullptr);

/// SyncCollection, using classic rsync per changed file (the baseline).
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

/// Test entry point. SyncCollectionTree hands each per-file endpoint the
/// fingerprint its manifest already computed; this variant builds the
/// endpoints without them (each one hashes its file again), which lets a
/// test pin that the hints never change a wire byte.
StatusOr<TreeSyncResult> SyncCollectionTreeWithoutHints(
    const Collection& client, const Collection& server,
    const TreeSyncParams& params, SimulatedChannel& channel);

}  // namespace core_internal

}  // namespace fsx

#endif  // FSYNC_CORE_COLLECTION_H_
