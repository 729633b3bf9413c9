// Filesystem snapshot store: load/save a Collection as a directory tree,
// with a manifest (name, size, fingerprint per file) that lets tools skip
// rehashing unchanged trees and detect tampering. The persistence layer
// behind the fsxsync example tool.
#ifndef FSYNC_STORE_FSSTORE_H_
#define FSYNC_STORE_FSSTORE_H_

#include <map>
#include <string>

#include "fsync/core/checkpoint.h"
#include "fsync/core/collection.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/util/status.h"

namespace fsx {

/// True when `path` is a safe tree-relative name: non-empty, '/'
/// separated, with no empty, "." or ".." components, no leading '/',
/// and no NUL, newline or backslash bytes (the text manifest is one
/// line per file, so it cannot carry a newline). Everything that turns
/// wire data into filesystem paths (apply transactions, the netd
/// client's manifest handling) must reject anything else *before*
/// touching the filesystem — a hostile manifest must not be able to
/// write outside the tree.
bool IsSafeRelativePath(const std::string& path);

/// Serializes / parses a Manifest (reconcile/manifest.h) in a stable
/// text format, one line per file: "<hex fingerprint> <size> <path>\n",
/// sorted by path. The mode is not written; a parsed entry carries the
/// default 0644.
Bytes SerializeManifest(const Manifest& manifest);
StatusOr<Manifest> ParseManifest(ByteSpan data);

/// Reads every regular file under `root` (paths relative to it, '/'
/// separators). Refuses paths that escape the tree and symlinks (which
/// could smuggle content from outside it); skips fsstore/apply
/// bookkeeping artifacts (manifest, journals, staged temps). A directory
/// the walk cannot read is kInternal, never a silently partial tree.
StatusOr<Collection> LoadTree(const std::string& root);

/// Writes `files` under `root`, creating directories as needed; a name
/// IsSafeRelativePath rejects is kInvalidArgument before anything is
/// written. Each file is staged to `<name>.fsx-tmp` and renamed into
/// place, so a killed process leaves every file either old or new,
/// never torn (for durability across power loss use the journaled
/// store::ApplyTree).
/// With `delete_extra`, regular files not in `files` are removed
/// (mirror semantics) — except fsstore/apply bookkeeping artifacts
/// (manifest, journals, staged temps); a directory the mirror walk
/// cannot read is kInternal rather than a silently partial mirror. Also
/// writes the manifest to `<root>/.fsx-manifest` when `write_manifest`
/// is set.
Status StoreTree(const std::string& root, const Collection& files,
                 bool delete_extra, bool write_manifest = false);

/// Verifies a tree against its stored manifest. Returns the names whose
/// content changed, appeared, or disappeared since the manifest was
/// written (empty vector = clean).
StatusOr<std::vector<std::string>> VerifyTree(const std::string& root);

/// Persists a session checkpoint (SerializeCheckpoint payload) to `path`,
/// so a killed synchronization can resume in a later process. The write
/// goes through a temp file + rename, so a crash mid-write leaves either
/// the old checkpoint or none — never a torn one.
Status SaveCheckpointFile(const std::string& path,
                          const SessionCheckpoint& cp);

/// Loads a checkpoint saved by SaveCheckpointFile. kNotFound when the
/// file does not exist; kDataLoss when it is corrupt (callers treat both
/// as "start fresh").
StatusOr<SessionCheckpoint> LoadCheckpointFile(const std::string& path);

/// Removes a checkpoint file (after a successful session) along with
/// any stranded `<path>.tmp` left by an interrupted save. Missing files
/// are OK; real filesystem errors are reported, not swallowed.
Status RemoveCheckpointFile(const std::string& path);

}  // namespace fsx

#endif  // FSYNC_STORE_FSSTORE_H_
