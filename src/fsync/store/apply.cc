#include "fsync/store/apply.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "fsync/store/durable_io.h"
#include "fsync/store/merge_cursor.h"
#include "fsync/store/tree_index.h"
#include "fsync/store/tree_walk.h"
#include "fsync/store/vfs.h"
#include "fsync/util/mapped_file.h"

namespace fsx::store {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestFile[] = ".fsx-manifest";

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

StatusOr<Bytes> ReadFileBytes(const fs::path& p) {
  return ReadWholeFile(p.string());
}

/// The manifest entry of `content`.
ManifestEntry EntryOf(ByteSpan content) {
  return ManifestEntry{FileFingerprint(content), content.size()};
}

/// The file as it exists on disk right now, in manifest terms; nullopt
/// when absent. This is the conflict detector's ground truth. One open:
/// ReadWholeFile fstats the open descriptor and refuses anything but a
/// regular file, so no stat comes first.
std::optional<ManifestEntry> DiskEntry(const fs::path& p) {
  auto data = ReadFileBytes(p);
  if (!data.ok()) {
    return std::nullopt;
  }
  return EntryOf(*data);
}

/// True when `p` is still the regular file the walk stat'ed as `key`.
bool StatStill(const fs::path& p, const StatKey& key) {
  struct stat st;
  return ::lstat(p.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
         StatKeyOf(st) == key;
}

Status ValidateRelPath(const std::string& path) {
  // Component-wise safety check (fsstore.h): rejects "..", ".", empty
  // components, absolute paths, backslashes and NULs — wire manifests
  // reach here, so this is a security boundary, not input hygiene.
  if (!IsSafeRelativePath(path)) {
    return Status::InvalidArgument("unsafe path in apply: " + path);
  }
  if (IsInternalArtifact(path)) {
    return Status::InvalidArgument("reserved artifact name in apply: " +
                                   path);
  }
  return Status::Ok();
}

/// Rewrites `<root>/.fsx-manifest` from the given manifest via durable
/// temp + rename (the same commit shape as content files).
Status WriteManifestDurable(const fs::path& root, const Manifest& manifest) {
  fs::path target = root / kManifestFile;
  fs::path tmp = target;
  tmp += kTempSuffix;
  FSYNC_RETURN_IF_ERROR(WriteFileDurable(tmp, SerializeManifest(manifest)));
  return RenameDurable(tmp, target);
}

/// Best-effort removal of a staged temp after a failed write; errors
/// are dropped (the disk may still be failing) — recovery sweeps any
/// leftover *.fsx-tmp the next time the tree is touched.
void CleanupTemp(const fs::path& tmp) { (void)CurrentVfs().Unlink(tmp); }

/// Writes the staged temp durably. A transient disk fault (kUnavailable
/// EIO, or kDataLoss from a failed fsync that may have dropped dirty
/// pages) is retried once; after the retry the temp is read back and
/// its fingerprint checked against the intent, because a failed fsync
/// leaves the on-disk bytes unverified — success is claimed on proof,
/// never assumed. Anything else (ENOSPC included) surfaces unchanged.
Status StageTempDurable(const fs::path& tmp, ByteSpan content,
                        const ManifestEntry& next, obs::SyncObserver* obs) {
  Status first = WriteFileDurable(tmp, content);
  if (first.ok()) {
    return first;
  }
  if (first.code() != StatusCode::kUnavailable &&
      first.code() != StatusCode::kDataLoss) {
    CleanupTemp(tmp);
    return first;
  }
  obs::AddEvent(obs, obs::Event::kDiskRetry);
  CleanupTemp(tmp);
  Status retry = WriteFileDurable(tmp, content);
  if (!retry.ok()) {
    CleanupTemp(tmp);
    return retry;
  }
  auto back = ReadFileBytes(tmp);
  if (!back.ok() || back->size() != next.size ||
      FileFingerprint(*back) != next.fingerprint) {
    CleanupTemp(tmp);
    return Status::DataLoss("staged file failed post-retry verification: " +
                            tmp.string());
  }
  return Status::Ok();
}

/// Manifest of the regular files actually on disk, for the recovery
/// manifest refresh. Unlike LoadTree this never refuses the tree:
/// symlinks and other non-regular entries are skipped (recovery must
/// converge even on trees the strict loader would reject — a legitimate
/// symlink plus a leftover journal must not make every future apply
/// fail).
StatusOr<Manifest> ManifestFromDiskLenient(const fs::path& base) {
  Manifest m;
  FSYNC_RETURN_IF_ERROR(WalkTree(
      base, [&](const std::string& rel, const struct stat& st) {
        if (!S_ISREG(st.st_mode) || IsInternalArtifact(rel)) {
          return Status::Ok();
        }
        // A file that vanished mid-walk is left out: the manifest
        // reflects what remains.
        if (std::optional<ManifestEntry> disk = DiskEntry(base / rel)) {
          m.emplace_hint(m.end(), rel, *disk);
        }
        return Status::Ok();
      }));
  return m;
}

/// True for what RecoverTree resolves: the tree journal (of any type —
/// an unreadable one must still fail the apply) and staged temps.
bool IsRecoveryDebris(const std::string& rel, const struct stat& st) {
  return rel == kJournalName ||
         (S_ISREG(st.st_mode) && EndsWith(rel, kTempSuffix));
}

}  // namespace

// ---------------------------------------------------------------------------
// The stat walk
// ---------------------------------------------------------------------------

/// One file the stat walk found: a regular file, or a symlink to one
/// (which the mirror delete counts as a file, but which is never
/// indexed).
struct ApplyTransaction::ScannedFile {
  std::string path;
  StatKey key;
  /// With `known`: the file's fingerprint under `key`, from an index hit
  /// or from a read the racy-clean rule lets this apply record. Written
  /// to the next index; dropped when the apply replaces or deletes the
  /// file.
  Fingerprint fingerprint{};
  bool known = false;
  bool regular = false;

  std::optional<ManifestEntry> Known() const {
    if (!known) {
      return std::nullopt;
    }
    return ManifestEntry{fingerprint, key.size};
  }
  void Remember(const Fingerprint& fp) {
    fingerprint = fp;
    known = true;
  }
};

struct ApplyTransaction::DiskScan {
  using Files = std::vector<ScannedFile>;
  static std::string_view PathOf(const ScannedFile& f) { return f.path; }
  using Cursor = MergeCursor<Files::iterator, decltype(&PathOf)>;

  int64_t clock_ns = 0;  // CoarseNowNs() before the walk's first stat
  Files files;           // in path order

  /// Walks `root` into `files`; true when the walk found anything
  /// RecoverTree would resolve.
  StatusOr<bool> Walk(const fs::path& root) {
    files.clear();
    clock_ns = CoarseNowNs();
    bool debris = false;
    FSYNC_RETURN_IF_ERROR(WalkTree(
        root, [&](const std::string& rel, const struct stat& st) {
          if (IsRecoveryDebris(rel, st)) {
            debris = true;
          }
          if (IsInternalArtifact(rel)) {
            return Status::Ok();
          }
          const bool regular = S_ISREG(st.st_mode);
          if (!regular) {
            struct stat target;
            if (!S_ISLNK(st.st_mode) ||
                ::stat((root / rel).c_str(), &target) != 0 ||
                !S_ISREG(target.st_mode)) {
              return Status::Ok();
            }
          }
          files.push_back(
              {.path = rel, .key = StatKeyOf(st), .regular = regular});
          return Status::Ok();
        }));
    cursor = Cursor(files.begin(), files.end(), &PathOf);
    return debris;
  }

  /// Marks known every regular file whose walk stat equals its `index`
  /// record in every key, with the recorded fingerprint.
  void Join(const TreeIndex& index) {
    Cursor file(files.begin(), files.end(), &PathOf);
    for (size_t i = 0; i < index.size(); ++i) {
      const IndexRecord r = index[i];
      auto f = file.Find(r.path);
      if (f != files.end() && f->regular && f->key == r.key) {
        f->Remember(r.fingerprint);
      }
    }
  }

  /// The scanned file at `path`, or nullptr.
  ScannedFile* Find(std::string_view path) {
    auto it = cursor.Find(path);
    return it == files.end() ? nullptr : &*it;
  }

 private:
  Cursor cursor{files.begin(), files.end(), &PathOf};
};

// ---------------------------------------------------------------------------
// ApplyTransaction
// ---------------------------------------------------------------------------

ApplyTransaction::ApplyTransaction(std::string root, ApplyOptions options,
                                   obs::SyncObserver* obs)
    : root_(std::move(root)),
      options_(options),
      obs_(obs),
      scan_(std::make_unique<DiskScan>()) {}

ApplyTransaction::~ApplyTransaction() = default;

Status ApplyTransaction::CheckBegun() const {
  if (!begun_) {
    return Status::FailedPrecondition("apply transaction not begun");
  }
  if (committed_) {
    return Status::FailedPrecondition("apply transaction already committed");
  }
  return Status::Ok();
}

Status ApplyTransaction::Begin() {
  if (begun_) {
    return Status::FailedPrecondition("apply transaction already begun");
  }
  FSYNC_RETURN_IF_ERROR(CreateDirsDurable(root_));
  // The one stat walk: it decides whether recovery must run and keys
  // the index records every re-check below may use.
  FSYNC_ASSIGN_OR_RETURN(bool debris, scan_->Walk(root_));
  if (debris) {
    FSYNC_ASSIGN_OR_RETURN(RecoverReport rec,
                           RecoverTree(root_.string(), obs_));
    report_.recovered = rec.had_journal || rec.cleaned_temps > 0;
    report_.rolled_back_files = rec.rolled_back_files;
    // Recovery may have rolled contents back: stat the tree again.
    FSYNC_RETURN_IF_ERROR(scan_->Walk(root_).status());
  }
  scan_->Join(TreeIndex::Load(root_));
  FSYNC_ASSIGN_OR_RETURN(journal_,
                         JournalWriter::Create(root_ / kJournalName));
  JournalRecord begin;
  begin.type = JournalRecordType::kBegin;
  FSYNC_RETURN_IF_ERROR(journal_.Append(begin));
  begun_ = true;
  return Status::Ok();
}

std::optional<ManifestEntry> ApplyTransaction::ReadDisk(
    const fs::path& target, ScannedFile* scanned, const ManifestEntry* next,
    ByteSpan content) {
  auto data = ReadFileBytes(target);
  if (!data.ok()) {
    return std::nullopt;
  }
  ++report_.files_read;
  // Bytes equal to `content` are `next` outright, a stronger test than
  // comparing size and MD5; other bytes are hashed.
  ManifestEntry disk = next != nullptr && std::equal(data->begin(), data->end(),
                                                     content.begin(),
                                                     content.end())
                           ? *next
                           : EntryOf(*data);
  // The walk's stat came before this read and after the clock reading,
  // so the racy-clean rule decides whether the pair may be kept.
  if (scanned != nullptr && scanned->regular &&
      scanned->key.size == disk.size &&
      MayRecord(scanned->key, scan_->clock_ns)) {
    scanned->Remember(disk.fingerprint);
  }
  return disk;
}

std::optional<ManifestEntry> ApplyTransaction::Recheck(
    const fs::path& target, ScannedFile*& scanned,
    const ManifestEntry* expected_old, const ManifestEntry* next,
    ByteSpan content) {
  if (scanned != nullptr && scanned->known) {
    std::optional<ManifestEntry> disk = scanned->Known();
    // An entry that lets the caller replace or delete the file is
    // confirmed by a fresh stat, so that step rests on the disk as it is
    // now, not as the walk saw it.
    if (expected_old == nullptr || !(*disk == *expected_old) ||
        StatStill(target, scanned->key)) {
      return disk;
    }
    scanned->known = false;
    scanned = nullptr;  // changed since the walk: read, never recorded
  }
  return ReadDisk(target, scanned, next, content);
}

Status ApplyTransaction::StageFile(const std::string& path, ByteSpan content,
                                   const ManifestEntry& next,
                                   const ManifestEntry* expected_old,
                                   FileOp op, const std::string& from_path) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  auto unchanged = [&] {
    manifest_.insert_or_assign(manifest_.end(), path, next);
    report_.files.push_back({path, FileApplyOutcome::Action::kUnchanged});
    ++report_.files_unchanged;
    return Status::Ok();
  };
  // An indexed file that already holds `next` is done here, without
  // building its path.
  ScannedFile* scanned = scan_->Find(path);
  if (scanned != nullptr && scanned->Known() == next) {
    return unchanged();
  }
  fs::path target = root_ / fs::path(path);
  std::optional<ManifestEntry> disk =
      Recheck(target, scanned, expected_old, &next, content);
  if (disk == next) {
    return unchanged();
  }

  // Conflict rule: the disk must look exactly as the caller last saw it
  // (absent when expected_old is null). Anything else means the file
  // changed under us; we refuse to clobber the concurrent edit.
  bool conflict = expected_old == nullptr
                      ? disk.has_value()
                      : (!disk.has_value() || !(*disk == *expected_old));
  if (conflict) {
    if (disk.has_value()) {
      manifest_.insert_or_assign(manifest_.end(), path, *disk);
    } else {
      manifest_.erase(path);
    }
    report_.files.push_back(
        {path, FileApplyOutcome::Action::kConflictSkipped});
    report_.conflicts.push_back(path);
    obs::AddEvent(obs_, obs::Event::kConflictDetected);
    return Status::Aborted("concurrent modification of " + path +
                           "; file skipped");
  }

  fs::path tmp = target;
  tmp += kTempSuffix;
  FSYNC_RETURN_IF_ERROR(StageTempDurable(tmp, content, next, obs_));
  JournalRecord intent;
  intent.type = JournalRecordType::kFileIntent;
  intent.op = op;
  intent.path = path;
  intent.size = next.size;
  intent.fingerprint = next.fingerprint;
  intent.from_path = from_path;
  FSYNC_RETURN_IF_ERROR(journal_.Append(intent));
  FSYNC_RETURN_IF_ERROR(RenameDurable(tmp, target));
  if (scanned != nullptr) {
    scanned->known = false;  // a new inode; its next read records it
  }

  manifest_.insert_or_assign(manifest_.end(), path, next);
  if (op == FileOp::kAdopt) {
    report_.files.push_back({path, FileApplyOutcome::Action::kAdopted});
    ++report_.files_adopted;
    obs::AddEvent(obs_, obs::Event::kRenameAdopted);
  } else {
    report_.files.push_back({path, FileApplyOutcome::Action::kCommitted});
  }
  ++report_.files_committed;
  return Status::Ok();
}

Status ApplyTransaction::WriteFile(const std::string& path, ByteSpan content,
                                   const ManifestEntry* expected_old) {
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(path));
  return StageFile(path, content, EntryOf(content), expected_old,
                   FileOp::kWrite, {});
}

Status ApplyTransaction::AdoptFile(const std::string& path,
                                   const std::string& from_path,
                                   const ManifestEntry* expected_old) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(path));
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(from_path));
  auto content = ReadFileBytes(root_ / fs::path(from_path));
  if (!content.ok()) {
    // The source vanished under us (or a crashed predecessor already
    // completed the rename and swept it). The target keeps whatever is
    // on disk; record it faithfully like any other conflict.
    ScannedFile* scanned = scan_->Find(path);
    std::optional<ManifestEntry> disk =
        Recheck(root_ / fs::path(path), scanned, nullptr);
    if (disk.has_value()) {
      manifest_[path] = *disk;
    } else {
      manifest_.erase(path);
    }
    report_.files.push_back(
        {path, FileApplyOutcome::Action::kConflictSkipped});
    report_.conflicts.push_back(path);
    obs::AddEvent(obs_, obs::Event::kConflictDetected);
    return Status::Aborted("adopt source missing: " + from_path);
  }
  ++report_.files_read;
  return StageFile(path, *content, EntryOf(*content), expected_old,
                   FileOp::kAdopt, from_path);
}

Status ApplyTransaction::AdoptFile(const std::string& path,
                                   const std::string& from_path,
                                   ByteSpan content,
                                   const ManifestEntry* expected_old) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(path));
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(from_path));
  return StageFile(path, content, EntryOf(content), expected_old,
                   FileOp::kAdopt, from_path);
}

Status ApplyTransaction::DeleteFile(const std::string& path,
                                    const ManifestEntry* expected_old) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(path));

  fs::path target = root_ / fs::path(path);
  ScannedFile* scanned = scan_->Find(path);
  std::optional<ManifestEntry> disk = Recheck(target, scanned, expected_old);
  if (!disk.has_value()) {
    manifest_.erase(path);  // already gone; nothing to do
    return Status::Ok();
  }

  // A file we were not told about (expected_old null: it appeared after
  // the caller scanned the tree) or whose content moved on is someone
  // else's work; skip it.
  bool conflict = expected_old == nullptr || !(*disk == *expected_old);
  if (conflict) {
    manifest_[path] = *disk;
    report_.files.push_back(
        {path, FileApplyOutcome::Action::kConflictSkipped});
    report_.conflicts.push_back(path);
    obs::AddEvent(obs_, obs::Event::kConflictDetected);
    return Status::Aborted("concurrent modification of " + path +
                           "; delete skipped");
  }

  JournalRecord intent;
  intent.type = JournalRecordType::kFileIntent;
  intent.op = FileOp::kDelete;
  intent.path = path;
  FSYNC_RETURN_IF_ERROR(journal_.Append(intent));
  FSYNC_RETURN_IF_ERROR(RemoveDurable(target));
  if (scanned != nullptr) {
    scanned->known = false;
  }

  manifest_.erase(path);
  report_.files.push_back({path, FileApplyOutcome::Action::kDeleted});
  ++report_.files_deleted;
  return Status::Ok();
}

Status ApplyTransaction::Commit() {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(WriteManifestDurable(root_, manifest_));
  JournalRecord commit;
  commit.type = JournalRecordType::kCommit;
  FSYNC_RETURN_IF_ERROR(journal_.Append(commit));
  journal_.Close();
  FSYNC_RETURN_IF_ERROR(RemoveJournal(root_ / kJournalName));
  obs::AddEvent(obs_, obs::Event::kJournalCommit);
  committed_ = true;
  SaveIndex();
  return Status::Ok();
}

void ApplyTransaction::SaveIndex() {
  TreeIndexWriter writer;
  for (const ScannedFile& f : scan_->files) {
    if (f.known) {
      writer.Add(f.path, f.key, f.fingerprint);
    }
  }
  // The index is a cache: a failed write costs the next apply reads,
  // never this committed apply its result.
  (void)WriteTreeIndex(root_, writer.Finish());
}

Status ApplyTransaction::Abort() {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  committed_ = true;  // the transaction is finished; further staging refused
  if (journal_.open()) {
    // Best-effort: the ABORT record makes the rollback explicit in the
    // journal, but the disk that forced the abort may refuse this
    // append too — recovery rolls back an uncommitted journal either
    // way.
    JournalRecord abort_rec;
    abort_rec.type = JournalRecordType::kAbort;
    (void)journal_.Append(abort_rec);
    journal_.Close();
  }
  FSYNC_ASSIGN_OR_RETURN(RecoverReport rec, RecoverTree(root_.string(), obs_));
  report_.rolled_back_files += rec.rolled_back_files;
  return Status::Ok();
}

StatusOr<ApplyReport> ApplyTree(const std::string& root,
                                const Collection& files,
                                const Manifest& expected,
                                const ApplyOptions& options,
                                obs::SyncObserver* obs) {
  return ApplyTreeWithAdopts(root, files, {}, expected, options, obs);
}

StatusOr<ApplyReport> ApplyTreeWithAdopts(const std::string& root,
                                          const Collection& files,
                                          const std::vector<AdoptOp>& adopts,
                                          const Manifest& expected,
                                          const ApplyOptions& options,
                                          obs::SyncObserver* obs) {
  // Every name is checked before Begin() touches the disk, so a hostile
  // name that sorts after a safe one cannot find the safe one already
  // committed. WriteFile, AdoptFile and DeleteFile check each name again
  // for callers that drive an ApplyTransaction directly.
  for (const auto& [name, data] : files) {
    FSYNC_RETURN_IF_ERROR(ValidateRelPath(name));
  }
  for (const AdoptOp& op : adopts) {
    FSYNC_RETURN_IF_ERROR(ValidateRelPath(op.path));
    FSYNC_RETURN_IF_ERROR(ValidateRelPath(op.from));
  }
  ApplyTransaction txn(root, options, obs);

  // Disk-full mid-transaction must abort and roll back, not return with
  // half the tree applied: the caller sees kResourceExhausted and an
  // old-or-new tree instead of a half-written one. The rollback is
  // best-effort here (the disk is by definition failing); the next
  // Begin() re-runs the same idempotent recovery.
  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kResourceExhausted) {
      obs::AddEvent(obs, obs::Event::kEnospcAbort);
      (void)txn.Abort();
    }
    return s;
  };

  // Begin's stat walk also lists the mirror delete.
  txn.scan_->files.reserve(files.size() + adopts.size());
  if (Status s = txn.Begin(); !s.ok()) {
    return fail(s);
  }
  txn.report_.files.reserve(files.size() + adopts.size());

  // Snapshot every adoption source before any mutation: in a rename
  // chain or swap (a->b plus b->a) a source may be overwritten by an
  // earlier adopt in this very transaction, and every adopt must see
  // the pre-transaction bytes. A source missing already now is handled
  // per-file by AdoptFile's conflict path.
  auto expected_entry = [&](const std::string& name) -> const ManifestEntry* {
    auto it = expected.find(name);
    return it == expected.end() ? nullptr : &it->second;
  };
  std::map<std::string, Bytes> sources;
  for (const AdoptOp& op : adopts) {
    if (sources.contains(op.from)) {
      continue;
    }
    auto data = ReadFileBytes(fs::path(root) / fs::path(op.from));
    if (data.ok()) {
      ++txn.report_.files_read;
      sources[op.from] = std::move(*data);
    }
  }
  std::set<std::string> adopted_paths;
  for (const AdoptOp& op : adopts) {
    adopted_paths.insert(op.path);
    auto it = sources.find(op.from);
    Status s = it == sources.end()
                   ? txn.AdoptFile(op.path, op.from, expected_entry(op.path))
                   : txn.AdoptFile(op.path, op.from, it->second,
                                   expected_entry(op.path));
    if (!s.ok() && s.code() != StatusCode::kAborted) {
      return fail(s);  // conflicts are per-file and already recorded
    }
  }

  // WriteFile's fingerprints for every incoming file, in one batched
  // pass; StageFile then stages each under the entry computed here.
  // `files`, `expected` and the scan are all in path order, so each
  // lookup advances a merge cursor.
  const std::vector<Fingerprint> fps = FileFingerprints(files);
  size_t i = 0;
  MergeCursor was(expected.begin(), expected.end(), kMapKey);
  auto expected_in_order = [&](std::string_view name) -> const ManifestEntry* {
    auto it = was.Find(name);
    return it == expected.end() ? nullptr : &it->second;
  };
  for (const auto& [name, data] : files) {
    Status s = txn.StageFile(name, data, ManifestEntry{fps[i++], data.size()},
                             expected_in_order(name), FileOp::kWrite, {});
    if (!s.ok() && s.code() != StatusCode::kAborted) {
      return fail(s);
    }
  }

  if (options.delete_extra) {
    // The walk's files that no incoming file or adoption names. A
    // symlink to a regular file counts as a file here; DeleteFile's
    // conflict rule decides its fate.
    std::vector<std::string> extra;
    MergeCursor wanted(files.begin(), files.end(), kMapKey);
    for (const ApplyTransaction::ScannedFile& f : txn.scan_->files) {
      if (wanted.Find(f.path) == files.end() &&
          !adopted_paths.contains(f.path)) {
        extra.push_back(f.path);
      }
    }
    was = MergeCursor(expected.begin(), expected.end(), kMapKey);
    for (const std::string& rel : extra) {
      Status s = txn.DeleteFile(rel, expected_in_order(rel));
      if (!s.ok() && s.code() != StatusCode::kAborted) {
        return fail(s);
      }
    }
  }

  if (Status s = txn.Commit(); !s.ok()) {
    return fail(s);
  }
  return txn.report();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

StatusOr<RecoverReport> RecoverTree(const std::string& root,
                                    obs::SyncObserver* obs) {
  RecoverReport rep;
  fs::path base(root);
  std::error_code ec;
  if (!fs::is_directory(base, ec)) {
    return rep;  // nothing on disk, nothing to recover
  }
  fs::path tree_journal = base / kJournalName;

  // Scan once up front for stranded temps. The tree journal itself is
  // resolved separately below.
  std::vector<fs::path> temps;
  FSYNC_RETURN_IF_ERROR(WalkTree(
      base, [&](const std::string& rel, const struct stat& st) {
        if (S_ISREG(st.st_mode) && EndsWith(rel, kTempSuffix)) {
          temps.push_back(base / rel);
        }
        return Status::Ok();
      }));

  // Resolve the tree journal. A header that fails to parse means the
  // journal died at creation, before any intent could land — treat it
  // as an empty uncommitted journal.
  auto contents = ReadJournal(tree_journal);
  if (contents.ok() || contents.status().code() == StatusCode::kDataLoss) {
    rep.had_journal = true;
    rep.was_committed = contents.ok() && contents->committed;
    if (contents.ok()) {
      for (const JournalRecord& r : contents->records) {
        if (r.type != JournalRecordType::kFileIntent ||
            r.op == FileOp::kDelete) {
          continue;  // writes and adopts stage temps; deletes do not
        }
        fs::path tmp = base / fs::path(r.path);
        tmp += kTempSuffix;
        if (fs::is_regular_file(tmp, ec)) {
          FSYNC_RETURN_IF_ERROR(RemoveDurable(tmp));
          if (!rep.was_committed) {
            ++rep.rolled_back_files;
            obs::AddEvent(obs, obs::Event::kRolledBackFile);
          } else {
            ++rep.cleaned_temps;
          }
        }
      }
    }
  } else if (contents.status().code() != StatusCode::kNotFound) {
    return contents.status();
  }

  // Sweep temps not named by the journal (including non-journaled
  // temp+rename writers that died mid-stage).
  for (const fs::path& tmp : temps) {
    if (!fs::is_regular_file(tmp, ec)) {
      continue;  // the journal pass already removed it
    }
    FSYNC_RETURN_IF_ERROR(RemoveDurable(tmp));
    ++rep.cleaned_temps;
    obs::AddEvent(obs, obs::Event::kRolledBackFile);
  }

  // The manifest may describe the interrupted transaction's intent;
  // refresh it to what actually survived so VerifyTree is clean again.
  if (rep.had_journal && fs::is_regular_file(base / kManifestFile, ec)) {
    FSYNC_ASSIGN_OR_RETURN(Manifest survivors,
                           ManifestFromDiskLenient(base));
    FSYNC_RETURN_IF_ERROR(WriteManifestDurable(base, survivors));
  }

  if (rep.had_journal) {
    // Removing the journal is the commit point of the recovery itself;
    // everything above is idempotent if we die before this.
    FSYNC_RETURN_IF_ERROR(RemoveJournal(tree_journal));
    obs::AddEvent(obs, obs::Event::kRecovery);
  }
  return rep;
}

}  // namespace fsx::store
