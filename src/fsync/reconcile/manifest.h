// Tree-level manifest reconciliation: the Directory Reconciliation step
// that runs *before* any per-file sync. Both replicas summarize their
// tree as a (path -> content-hash, size, mode) manifest, the same type
// the store commits and the daemon ships; a hash-trie walk (trie.h)
// narrows the exchange to the differing subset, so an unchanged file
// costs nothing and the whole round trip is O(set difference), not O(n)
// fingerprints. The changed-file-identification literature the paper
// surveys [1,4,27-30,36,42] is the source of the approach; the paper
// itself uses a flat per-file fingerprint exchange (FullExchangeBytes).
//
// On top of the raw set difference, the client runs content-hash rename
// detection: a stale path whose server-side (fingerprint, size) matches a
// file the client already holds becomes a zero-literal AdoptOp ("take the
// content from this old path") instead of a per-file sync session. Pure
// renames/moves/copies therefore ship no literal data at all.
#ifndef FSYNC_RECONCILE_MANIFEST_H_
#define FSYNC_RECONCILE_MANIFEST_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsync/hash/fingerprint.h"
#include "fsync/net/channel.h"
#include "fsync/util/status.h"

namespace fsx {

/// One manifest row: everything tree-level reconciliation, the store
/// and the daemon know about a file without re-reading its contents.
struct ManifestEntry {
  Fingerprint fingerprint{};
  uint64_t size = 0;
  /// POSIX permission bits. Every collection carries the conventional
  /// 0644, and the text manifest (store/fsstore.h) neither writes nor
  /// reads it; the field still rides the trie walk's wire and node
  /// hashes, so a future chmod alone marks a file stale.
  uint32_t mode = 0644;
  friend bool operator==(const ManifestEntry&,
                         const ManifestEntry&) = default;
};

/// Snapshot manifest: relative path -> metadata.
using Manifest = std::map<std::string, ManifestEntry>;

/// Computes the manifest of an in-memory collection: a loop over
/// FileFingerprints(files, num_threads), so the result is identical at
/// any thread count.
Manifest BuildManifest(const std::map<std::string, Bytes>& files,
                       int num_threads = 1);

/// Cost of the flat exchange the walk replaces, the paper's own: the
/// client announces (name, fingerprint) per file, charged as 16 bytes
/// plus the name and a separator. `files` is any map keyed by name.
template <typename Files>
uint64_t FullExchangeBytes(const Files& files) {
  uint64_t total = 0;
  for (const auto& kv : files) {
    total += 16 + kv.first.size() + 1;
  }
  return total;
}

/// A zero-literal ledger op: `path` must take the content the client
/// already holds at `from` (a rename/move/copy detected by content hash).
/// Adoption reads from the client's *pre-sync* tree, so sources must be
/// captured before any destructive applies.
struct AdoptOp {
  std::string path;  ///< destination (server-side path)
  std::string from;  ///< existing client path with identical content
  friend bool operator==(const AdoptOp&, const AdoptOp&) = default;
};

/// What the manifest round discovered (from the client's perspective).
/// The trie walk's client half (reconcile/trie.h) produces it; adoption
/// detection then fills `adopts`.
struct ManifestDiff {
  /// Paths the client must fetch/update by per-file sync (differs or
  /// server-only), minus those satisfied locally by `adopts`.
  std::vector<std::string> stale;
  /// Server-side entries for every differing path — both the `stale`
  /// ones and the adopted ones — so callers can plan sessions (size) and
  /// verify adoptions (fingerprint) without another round.
  Manifest stale_entries;
  /// Paths only the client has: deleted under mirror semantics.
  std::vector<std::string> extra;
  /// Differing paths whose server content the client already holds under
  /// another name; sorted by destination path.
  std::vector<AdoptOp> adopts;
  /// This walk's traffic only (deltas of the channel's TrafficStats), so
  /// the round composes into a larger protocol on a shared channel.
  TrafficStats stats;
  int rounds = 0;
};

/// Runs the manifest trie walk between a client holding `client` and a
/// server holding `server` over `channel`, then detects adoptions
/// client-side. Exact: stale + adopts + extra always equals the true
/// difference. All traffic is charged to obs::Phase::kManifest.
StatusOr<ManifestDiff> ManifestReconcile(const Manifest& client,
                                         const Manifest& server,
                                         SimulatedChannel& channel,
                                         obs::SyncObserver* obs = nullptr);

/// The rename-detection step alone (exposed for tests): partitions the
/// already-reconciled `diff.stale` set into adoptions and residual stale
/// paths, given the client's pre-sync manifest. Deterministic: each
/// destination adopts from the lexicographically smallest matching client
/// path; a source may serve many destinations (identical-content
/// fan-out). Requires equal (fingerprint, size, mode).
void DetectAdoptions(const Manifest& client, ManifestDiff& diff);

}  // namespace fsx

#endif  // FSYNC_RECONCILE_MANIFEST_H_
