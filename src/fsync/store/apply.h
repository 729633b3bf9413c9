// Crash-safe apply: journaled, all-or-nothing-per-file application of a
// synchronized Collection to a directory tree. The commit protocol for
// each file is
//
//   1. re-check the on-disk file against the caller's expected state —
//      a file changed under us surfaces Status::Aborted and is skipped,
//   2. stage the new content into `<path>.fsx-tmp` (fsynced),
//   3. append a FILE-INTENT record to the write-ahead journal (fsynced),
//   4. rename the temp over the target (atomic) and fsync the directory,
//
// followed by one manifest rewrite and a COMMIT record for the whole
// transaction. A crash at *any* point (every fsync/rename/append fires
// a crash point, see crashpoint.h) leaves each file bit-exactly old or
// new; RecoverTree rolls the tree back to a consistent state (discard
// staged temps, refresh the manifest) and empties the journal.
//
// ApplyTree pays for the difference, not for the tree. One stat walk
// (tree_walk.h) runs as the transaction begins and feeds three
// things: the recovery check (RecoverTree runs only when the walk finds
// a journal or a staged temp), the mirror delete (the walk's files
// merge-joined against the incoming ones) and the step-1 re-check. For
// a file whose stat still matches its `.fsx-index` record
// (tree_index.h) the re-check takes the recorded fingerprint instead of
// reading the file; any other file is read as before, and recorded for
// the next apply when the racy-clean rule allows. Commit rewrites the
// index after COMMIT; committed files are not recorded until a
// later apply reads them.
#ifndef FSYNC_STORE_APPLY_H_
#define FSYNC_STORE_APPLY_H_

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/store/fsstore.h"
#include "fsync/store/journal.h"

namespace fsx::store {

struct ApplyOptions {
  bool delete_extra = true;  // mirror semantics for extra disk files
};

/// What happened to one path during a transaction.
struct FileApplyOutcome {
  enum class Action {
    kCommitted,        // staged, journaled, renamed into place
    kUnchanged,        // disk already held the new content
    kDeleted,          // removed (mirror semantics)
    kAdopted,          // committed from another local path (rename/move)
    kConflictSkipped,  // changed under us; left untouched
  };
  std::string path;
  Action action = Action::kCommitted;
};

struct ApplyReport {
  std::vector<FileApplyOutcome> files;  // per-path outcomes, in apply order
  uint64_t files_committed = 0;
  uint64_t files_unchanged = 0;
  uint64_t files_deleted = 0;
  uint64_t files_adopted = 0;  // subset of committed staged from a local path
  /// On-disk files whose content the apply read: re-checks the stat
  /// index could not answer, and adoption sources.
  uint64_t files_read = 0;
  /// Paths skipped because the on-disk state no longer matched the
  /// caller's expectation (each surfaced as Status::Aborted).
  std::vector<std::string> conflicts;
  /// Begin() found and resolved a leftover journal from a crashed apply.
  bool recovered = false;
  uint64_t rolled_back_files = 0;  // staged temps that recovery discarded
};

/// One journaled apply against a tree. Construct, Begin() (which first
/// recovers any interrupted predecessor), stage writes/deletes, then
/// Commit(). Per-file conflicts return Status::Aborted and are recorded
/// in report().conflicts; the transaction continues past them.
class ApplyTransaction {
 public:
  ApplyTransaction(std::string root, ApplyOptions options,
                   obs::SyncObserver* obs = nullptr);
  ~ApplyTransaction();

  /// Walks the tree once (the stat keys of every re-check), recovers a
  /// leftover journal or staged temp when the walk finds one, loads the
  /// stat index, then opens a fresh journal and writes its BEGIN record.
  Status Begin();

  /// Stages `content` at `path` (tree-relative). `expected_old`
  /// describes the file as the caller last saw it (nullptr = expected
  /// absent); if the on-disk state differs from both that and the new
  /// content, the file changed under us: it is skipped and
  /// Status::Aborted returned.
  Status WriteFile(const std::string& path, ByteSpan content,
                   const ManifestEntry* expected_old);

  /// Stages the tree's own current `from_path` content at `path` (a
  /// rename/move/copy detected by manifest reconciliation: no network
  /// bytes, but the same journaled temp-stage-rename commit as
  /// WriteFile). The conflict rule on `path` is WriteFile's; a missing
  /// or unreadable source is itself a conflict (Status::Aborted).
  Status AdoptFile(const std::string& path, const std::string& from_path,
                   const ManifestEntry* expected_old);

  /// Same, with the adopted content supplied by the caller (a snapshot
  /// of `from_path`'s pre-transaction bytes). Use this form when the
  /// transaction contains rename chains or swaps (a->b plus b->a),
  /// where an earlier adopt in the same transaction may already have
  /// overwritten the source on disk.
  Status AdoptFile(const std::string& path, const std::string& from_path,
                   ByteSpan content, const ManifestEntry* expected_old);

  /// Deletes `path` (mirror semantics) under the same conflict rule:
  /// a file that no longer matches `expected_old` is skipped.
  Status DeleteFile(const std::string& path,
                    const ManifestEntry* expected_old);

  /// Rewrites the manifest to the actual post-apply state, appends the
  /// COMMIT record, and removes the journal. Then it replaces the stat
  /// index with what this apply learned; that write is best effort, and
  /// its failure leaves the old index or none, never a failed commit.
  Status Commit();

  /// Abandons the transaction after a mid-apply disk fault (disk full,
  /// persistent EIO): appends a best-effort ABORT record, closes the
  /// journal, and rolls staged temps back via RecoverTree, so the tree
  /// ends old-or-new with no debris. Idempotent with crash recovery —
  /// if the rollback itself fails on the bad disk, the next Begin()
  /// re-runs it.
  Status Abort();

  const ApplyReport& report() const { return report_; }

 private:
  // ApplyTreeWithAdopts fingerprints all its files in one batched pass
  // and hands each entry to StageFile; Begin's walk lists its mirror
  // delete.
  friend StatusOr<ApplyReport> ApplyTreeWithAdopts(
      const std::string& root, const Collection& files,
      const std::vector<AdoptOp>& adopts, const Manifest& expected,
      const ApplyOptions& options, obs::SyncObserver* obs);

  // Begin's stat walk, joined with the index (defined in apply.cc).
  struct DiskScan;
  struct ScannedFile;

  Status CheckBegun() const;
  // Reads the file at `target` for the re-check (nullopt when absent),
  // and records its entry in `scanned` when the racy-clean rule allows.
  // Bytes equal to `content` are `*next` without hashing.
  std::optional<ManifestEntry> ReadDisk(const std::filesystem::path& target,
                                        ScannedFile* scanned,
                                        const ManifestEntry* next = nullptr,
                                        ByteSpan content = {});
  // The step-1 re-check of `target`: the indexed entry of `scanned`, or
  // ReadDisk. An entry equal to `expected_old` (the caller may then
  // replace or delete the file) is trusted only while a fresh stat still
  // matches the walk's; otherwise `scanned` is reset and the file read.
  std::optional<ManifestEntry> Recheck(const std::filesystem::path& target,
                                       ScannedFile*& scanned,
                                       const ManifestEntry* expected_old,
                                       const ManifestEntry* next = nullptr,
                                       ByteSpan content = {});
  // Stages `content`, whose manifest entry is `next`, at a `path` the
  // caller has validated.
  Status StageFile(const std::string& path, ByteSpan content,
                   const ManifestEntry& next,
                   const ManifestEntry* expected_old, FileOp op,
                   const std::string& from_path);
  // Commit's last step: replaces the stat index with what this apply
  // learned. Best effort; a failure leaves the old index or none.
  void SaveIndex();

  std::filesystem::path root_;
  ApplyOptions options_;
  obs::SyncObserver* obs_;
  std::unique_ptr<DiskScan> scan_;
  JournalWriter journal_;
  Manifest manifest_;  // accumulates the actual post-apply disk state
  ApplyReport report_;
  bool begun_ = false;
  bool committed_ = false;
};

/// Applies `files` to `root` in one transaction: the one writer of a
/// synced tree (the local fsxsync sync and netd::ConnectTree both commit
/// through it). `expected` is the manifest of the tree as it was loaded
/// (conflict baseline); per-file conflicts are skipped and reported,
/// every other error aborts the apply. A name IsSafeRelativePath
/// rejects, or a bookkeeping artifact's name, is kInvalidArgument before
/// anything touches the disk. Seeding an empty tree is
/// `ApplyTree(root, files, Manifest{})`.
StatusOr<ApplyReport> ApplyTree(const std::string& root,
                                const Collection& files,
                                const Manifest& expected,
                                const ApplyOptions& options = {},
                                obs::SyncObserver* obs = nullptr);

/// Like ApplyTree, but first materializes `adopts` (rename/move ops
/// from manifest reconciliation) from the tree's pre-transaction
/// content: every source is snapshotted before any mutation, so rename
/// chains and swaps resolve to the old bytes. The desired final tree is
/// `files` plus the adopted paths; with delete_extra, adoption sources
/// not otherwise retained are removed (completing the rename). Adopt
/// targets must not also appear in `files`.
StatusOr<ApplyReport> ApplyTreeWithAdopts(const std::string& root,
                                          const Collection& files,
                                          const std::vector<AdoptOp>& adopts,
                                          const Manifest& expected,
                                          const ApplyOptions& options = {},
                                          obs::SyncObserver* obs = nullptr);

struct RecoverReport {
  bool had_journal = false;    // a tree journal was present
  bool was_committed = false;  // ... with a COMMIT record (cleanup only)
  uint64_t rolled_back_files = 0;  // staged temps discarded
  uint64_t cleaned_temps = 0;      // stranded *.fsx-tmp files removed
};

/// Brings a tree back to a consistent old-or-new state after a crash:
/// resolves the tree journal (discarding staged temps and refreshing
/// the manifest to what is actually on disk) and sweeps stranded temp
/// files. Idempotent; a no-op on a clean tree.
StatusOr<RecoverReport> RecoverTree(const std::string& root,
                                    obs::SyncObserver* obs = nullptr);

}  // namespace fsx::store

#endif  // FSYNC_STORE_APPLY_H_
