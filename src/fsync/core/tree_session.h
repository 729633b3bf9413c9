// TreeSyncClient and TreeSyncServer: the tree flow of SyncCollectionTree
// as two message-in/message-out halves, the shape ClientFileSession gives
// one file, one level up. Together they own every tree-level decision:
// the manifest walk, the mirror deletes, rename adoption, the split into
// small and large files, the plan, and building and verifying the
// small-file bundle. Neither moves a byte:
//
//   TreeSyncClient client(local, params);
//   TreeSyncServer server(snapshot);
//   std::optional<Bytes> ask = client.Start();
//   while (ask) ask = client.OnWalkReply(server.OnWalk(*ask));
//   if (std::optional<Bytes> plan = client.Plan()) {
//     Bytes bundle = server.OnPlan(*plan);       // empty: nothing to send
//     if (client.awaits_bundle()) client.OnBundle(bundle);
//   }
//   // client.large(): the files left for per-file sessions
//
// SyncCollectionTree moves these messages over a SimulatedChannel and
// multiplexes the large files' sessions behind the plan; the daemon
// moves the same bodies as kWalk/kPlan frames and opens one stream per
// large file (netd/protocol.h). Wire format: docs/PROTOCOL.md, "Tree
// sync".
#ifndef FSYNC_CORE_TREE_SESSION_H_
#define FSYNC_CORE_TREE_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/reconcile/trie.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// The served tree's half of the flow, built once: its manifest and the
/// walk's server side. Immutable but for the side's thread-safe memo of
/// node hashes, so one snapshot serves any number of concurrent
/// TreeSyncServers (the daemon builds one at start-up), and a node any
/// of them hashed is hashed once for all of them.
struct TreeSnapshot {
  /// `tree` must outlive the snapshot. `small_file_threshold` and
  /// `cache` shape every server over it.
  TreeSnapshot(const Collection& tree, const TreeSyncParams& params);
  TreeSnapshot(Collection&&, const TreeSyncParams&) = delete;
  // `side` points into `manifest`.
  TreeSnapshot(const TreeSnapshot&) = delete;
  TreeSnapshot& operator=(const TreeSnapshot&) = delete;

  const Collection& tree;
  const TreeSyncParams params;
  const Manifest manifest;
  const reconcile_internal::TrieSide side;
};

/// The server half for one client. It answers only the flow it offered:
/// the walk asks must follow the walk (reconcile/trie.h, TrieServer),
/// and then comes at most one plan, whose paths are strictly ascending
/// and all held by the snapshot. Anything else is DataLoss, and the
/// caller should treat the peer as broken.
class TreeSyncServer {
 public:
  /// `snapshot` must outlive the server. `obs` sees the bundle's cache
  /// traffic.
  explicit TreeSyncServer(const TreeSnapshot& snapshot,
                          obs::SyncObserver* obs = nullptr);

  /// Answers one walk ask.
  StatusOr<Bytes> OnWalk(ByteSpan ask);

  /// Answers the plan with the bundle: the compressed small files in
  /// plan order. Empty when the plan names none, and then nothing is
  /// sent (a bundle of one file is never empty).
  StatusOr<Bytes> OnPlan(ByteSpan plan);

 private:
  const TreeSnapshot& snapshot_;
  obs::SyncObserver* obs_;
  ManifestWalkServer walk_;
  bool walked_ = false;
  bool planned_ = false;
};

/// The client half. After the walk, result().reconstructed holds the
/// local files minus the mirror deletes and every stale path, plus the
/// adoptions; the bundle adds the small files; large() is what is left
/// for per-file sessions, with manifest() holding their local
/// fingerprints as session hints.
class TreeSyncClient {
 public:
  /// `local` must outlive the client.
  TreeSyncClient(const Collection& local, const TreeSyncParams& params,
                 obs::SyncObserver* obs = nullptr);
  TreeSyncClient(Collection&&, const TreeSyncParams&,
                 obs::SyncObserver* = nullptr) = delete;
  // The walk's side points into manifest_.
  TreeSyncClient(const TreeSyncClient&) = delete;
  TreeSyncClient& operator=(const TreeSyncClient&) = delete;

  /// The first walk ask.
  Bytes Start() { return walk_.Start(); }

  /// Consumes a walk reply; returns the next ask, or nullopt once the
  /// walk is done and the tree-level decisions are made.
  StatusOr<std::optional<Bytes>> OnWalkReply(ByteSpan reply);

  /// The plan: every residual stale path, ascending; nullopt when the
  /// walk left none.
  std::optional<Bytes> Plan() const;

  /// True when the server answers the plan with a bundle.
  bool awaits_bundle() const { return !small_.empty(); }

  /// Unpacks the bundle, checking each file against the fingerprint the
  /// walk delivered (all files hashed in one Md5Batch pass). A mismatch
  /// is DataLoss and adds none of the bundle's files.
  Status OnBundle(ByteSpan bundle);

  /// The walk's outcome, adoptions applied.
  const ManifestDiff& diff() const { return walk_.diff(); }
  /// The local manifest.
  const Manifest& manifest() const { return manifest_; }
  /// Stale files above the small-file threshold, ascending.
  const std::vector<std::string>& large() const { return large_; }
  /// The replica so far and the per-file classification (wire figures
  /// belong to whoever moves the bytes).
  TreeSyncResult& result() { return result_; }

 private:
  const Collection& local_;
  const uint64_t small_file_threshold_;
  obs::SyncObserver* obs_;
  const Manifest manifest_;
  ManifestWalkClient walk_;
  std::vector<std::string> small_, large_;
  TreeSyncResult result_;
};

}  // namespace fsx

#endif  // FSYNC_CORE_TREE_SESSION_H_
