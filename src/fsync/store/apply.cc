#include "fsync/store/apply.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "fsync/store/crashpoint.h"
#include "fsync/store/durable_io.h"
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

/// Random-access read/write handle used by the in-place apply and its
/// rollback. A thin loop layer over the process-current Vfs, so the
/// disk-fault harness can fail any single pread/pwrite/ftruncate/fsync
/// the in-place path performs.
class RandomAccessFile {
 public:
  RandomAccessFile() = default;
  ~RandomAccessFile() { Close(); }
  RandomAccessFile(RandomAccessFile&&) noexcept = default;
  RandomAccessFile& operator=(RandomAccessFile&&) noexcept = default;

  static StatusOr<RandomAccessFile> Open(const fs::path& path) {
    RandomAccessFile f;
    FSYNC_ASSIGN_OR_RETURN(f.file_,
                           CurrentVfs().Open(path, OpenMode::kReadWrite));
    return f;
  }

  Status ReadAt(uint64_t offset, size_t n, Bytes* out) {
    out->assign(n, 0);  // short reads past EOF read as zeros
    size_t got = 0;
    while (got < n) {
      FSYNC_ASSIGN_OR_RETURN(
          size_t r, file_->Pread(offset + got, out->data() + got, n - got));
      if (r == 0) {
        break;  // EOF; remainder stays zero
      }
      got += r;
    }
    return Status::Ok();
  }

  Status WriteAt(uint64_t offset, ByteSpan data) {
    size_t put = 0;
    while (put < data.size()) {
      FSYNC_ASSIGN_OR_RETURN(
          size_t w, file_->Pwrite(offset + put, data.data() + put,
                                  data.size() - put));
      if (w == 0) {
        return Status::Internal("zero-length pwrite on " +
                                file_->path().string());
      }
      put += w;
    }
    return Status::Ok();
  }

  Status Truncate(uint64_t size) { return file_->Truncate(size); }

  Status Sync() {
    FireCrashPoint("inplace:fsync:before");
    FSYNC_RETURN_IF_ERROR(file_->Fsync());
    FireCrashPoint("inplace:fsync:after");
    return Status::Ok();
  }

  void Close() {
    if (file_) {
      file_->Close();
      file_.reset();
    }
  }

 private:
  std::unique_ptr<VfsFile> file_;
};

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

uint64_t StepLength(const ReconstructCommand& step) {
  return step.kind == ReconstructCommand::kCopy ? step.length
                                                : step.literal.size();
}

/// Manifest of the regular files actually on disk, for the recovery
/// manifest refresh. Unlike LoadTree this never refuses the tree:
/// symlinks and escaping paths are skipped (recovery must converge even
/// on trees the strict loader would reject — a legitimate symlink plus
/// a leftover journal must not make every future apply fail).
StatusOr<Manifest> ManifestFromDiskLenient(const fs::path& base) {
  Manifest m;
  FSYNC_RETURN_IF_ERROR(WalkTree(
      base, [&](const std::string& rel, const fs::directory_entry& entry) {
        std::error_code ec;
        if (entry.is_symlink(ec) || !entry.is_regular_file(ec) ||
            rel.empty() || rel.starts_with("..") || IsInternalArtifact(rel)) {
          return Status::Ok();
        }
        // A file that vanished mid-walk is left out: the manifest
        // reflects what remains.
        if (std::optional<ManifestEntry> disk = DiskEntry(entry.path())) {
          m[rel] = *disk;
        }
        return Status::Ok();
      }));
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// ApplyTransaction
// ---------------------------------------------------------------------------

ApplyTransaction::ApplyTransaction(std::string root, ApplyOptions options,
                                   obs::SyncObserver* obs)
    : root_(std::move(root)), options_(options), obs_(obs) {}

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
  FSYNC_ASSIGN_OR_RETURN(RecoverReport rec,
                         RecoverTree(root_.string(), obs_));
  report_.recovered =
      rec.had_journal || rec.cleaned_temps > 0 || rec.inplace_recovered > 0;
  report_.rolled_back_files = rec.rolled_back_files;
  FSYNC_ASSIGN_OR_RETURN(journal_,
                         JournalWriter::Create(root_ / kJournalName));
  JournalRecord begin;
  begin.type = JournalRecordType::kBegin;
  begin.mode = ApplyMode::kTree;
  FSYNC_RETURN_IF_ERROR(journal_.Append(begin));
  begun_ = true;
  return Status::Ok();
}

Status ApplyTransaction::StageFile(const std::string& path, ByteSpan content,
                                   const ManifestEntry& next,
                                   const ManifestEntry* expected_old,
                                   FileOp op, const std::string& from_path) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(path));

  fs::path target = root_ / fs::path(path);
  // One read of the disk file (see DiskEntry). Bytes equal to `content`
  // are unchanged outright — a stronger test than comparing size and
  // MD5 — so the disk bytes are hashed only when they differ, for the
  // conflict rule.
  std::optional<ManifestEntry> disk;
  if (auto on_disk = ReadFileBytes(target); on_disk.ok()) {
    if (std::equal(on_disk->begin(), on_disk->end(), content.begin(),
                   content.end())) {
      manifest_[path] = next;
      report_.files.push_back({path, FileApplyOutcome::Action::kUnchanged});
      ++report_.files_unchanged;
      return Status::Ok();
    }
    disk = EntryOf(*on_disk);
  }

  // Conflict rule: the disk must look exactly as the caller last saw it
  // (absent when expected_old is null). Anything else means the file
  // changed under us; we refuse to clobber the concurrent edit.
  bool conflict = expected_old == nullptr
                      ? disk.has_value()
                      : (!disk.has_value() || !(*disk == *expected_old));
  if (conflict) {
    if (disk.has_value()) {
      manifest_[path] = *disk;  // manifest reflects what is really there
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

  manifest_[path] = next;
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
    std::optional<ManifestEntry> disk = DiskEntry(root_ / fs::path(path));
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
  return StageFile(path, *content, EntryOf(*content), expected_old,
                   FileOp::kAdopt, from_path);
}

Status ApplyTransaction::AdoptFile(const std::string& path,
                                   const std::string& from_path,
                                   ByteSpan content,
                                   const ManifestEntry* expected_old) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(from_path));
  return StageFile(path, content, EntryOf(content), expected_old,
                   FileOp::kAdopt, from_path);
}

Status ApplyTransaction::DeleteFile(const std::string& path,
                                    const ManifestEntry* expected_old) {
  FSYNC_RETURN_IF_ERROR(CheckBegun());
  FSYNC_RETURN_IF_ERROR(ValidateRelPath(path));

  fs::path target = root_ / fs::path(path);
  std::optional<ManifestEntry> disk = DiskEntry(target);
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
  return Status::Ok();
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
  // committed. StageFile checks each name again for callers that drive
  // an ApplyTransaction directly.
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

  if (Status s = txn.Begin(); !s.ok()) {
    return fail(s);
  }

  auto expected_entry = [&](const std::string& name) -> const ManifestEntry* {
    auto it = expected.find(name);
    return it == expected.end() ? nullptr : &it->second;
  };

  // Snapshot every adoption source before any mutation: in a rename
  // chain or swap (a->b plus b->a) a source may be overwritten by an
  // earlier adopt in this very transaction, and every adopt must see
  // the pre-transaction bytes. A source missing already now is handled
  // per-file by AdoptFile's conflict path.
  std::map<std::string, Bytes> sources;
  for (const AdoptOp& op : adopts) {
    if (sources.contains(op.from)) {
      continue;
    }
    auto data = ReadFileBytes(fs::path(root) / fs::path(op.from));
    if (data.ok()) {
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
  const std::vector<Fingerprint> fps = FileFingerprints(files);
  size_t i = 0;
  for (const auto& [name, data] : files) {
    Status s = txn.StageFile(name, data, ManifestEntry{fps[i++], data.size()},
                             expected_entry(name), FileOp::kWrite, {});
    if (!s.ok() && s.code() != StatusCode::kAborted) {
      return fail(s);
    }
  }

  if (options.delete_extra) {
    // A symlink to a regular file counts as a file here; DeleteFile's
    // conflict rule decides its fate.
    std::vector<std::string> extra;
    FSYNC_RETURN_IF_ERROR(WalkTree(
        root, [&](const std::string& rel, const fs::directory_entry& entry) {
          std::error_code ec;
          if (entry.is_regular_file(ec) && !rel.empty() &&
              !IsInternalArtifact(rel) && !files.contains(rel) &&
              !adopted_paths.contains(rel)) {
            extra.push_back(rel);
          }
          return Status::Ok();
        }));
    for (const std::string& rel : extra) {
      Status s = txn.DeleteFile(rel, expected_entry(rel));
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

  // Scan once up front: stranded temps and per-file in-place journals.
  // The tree journal itself is resolved separately below.
  std::vector<fs::path> temps;
  std::vector<fs::path> inplace_targets;
  FSYNC_RETURN_IF_ERROR(WalkTree(
      base, [&](const std::string& rel, const fs::directory_entry& entry) {
        std::error_code walk_ec;
        if (!entry.is_regular_file(walk_ec)) {
          return Status::Ok();
        }
        if (EndsWith(rel, kTempSuffix)) {
          temps.push_back(entry.path());
        } else if (EndsWith(rel, kJournalSuffix) && rel != kJournalName) {
          std::string target = entry.path().string();
          target.resize(target.size() - std::strlen(kJournalSuffix));
          inplace_targets.push_back(fs::path(target));
        }
        return Status::Ok();
      }));

  // Per-file in-place journals first: they restore file *contents*,
  // which the manifest refresh below must observe.
  for (const fs::path& target : inplace_targets) {
    FSYNC_ASSIGN_OR_RETURN(InPlaceRecoverResult r,
                           RecoverInPlaceFile(target.string(), obs));
    if (r.had_journal) {
      ++rep.inplace_recovered;
    }
    if (r.foreign) {
      ++rep.foreign_journals;
    }
  }

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

// ---------------------------------------------------------------------------
// In-place apply
// ---------------------------------------------------------------------------

StatusOr<InPlaceApplyResult> InPlaceApplyFile(
    const std::string& path, std::vector<ReconstructCommand> commands,
    uint64_t new_size, const Fingerprint* expected_old,
    obs::SyncObserver* obs) {
  InPlaceApplyResult out;
  FSYNC_ASSIGN_OR_RETURN(InPlaceRecoverResult rec,
                         RecoverInPlaceFile(path, obs));
  out.recovered = rec.had_journal;

  fs::path target(path);
  FSYNC_ASSIGN_OR_RETURN(Bytes old_content, ReadFileBytes(target));
  if (expected_old != nullptr && FileFingerprint(old_content) != *expected_old) {
    obs::AddEvent(obs, obs::Event::kConflictDetected);
    return Status::Aborted("concurrent modification of " + path +
                           "; in-place apply refused");
  }

  FSYNC_ASSIGN_OR_RETURN(
      InPlacePlan plan,
      PlanInPlace(old_content, std::move(commands), new_size));
  out.promoted_literal_bytes = plan.promoted_literal_bytes;
  out.promoted_commands = plan.promoted_commands;

  fs::path journal_path = target;
  journal_path += kJournalSuffix;
  FSYNC_ASSIGN_OR_RETURN(JournalWriter journal,
                         JournalWriter::Create(journal_path));
  JournalRecord begin;
  begin.type = JournalRecordType::kBegin;
  begin.mode = ApplyMode::kInPlace;
  begin.old_size = old_content.size();
  FSYNC_RETURN_IF_ERROR(journal.Append(begin));

  FSYNC_ASSIGN_OR_RETURN(RandomAccessFile file, RandomAccessFile::Open(target));
  uint64_t work_size = std::max<uint64_t>(new_size, old_content.size());
  if (work_size > old_content.size()) {
    FSYNC_RETURN_IF_ERROR(file.Truncate(work_size));
    FireCrashPoint("inplace:grow");
  }

  Bytes scratch;
  for (const ReconstructCommand& step : plan.steps) {
    uint64_t len = StepLength(step);
    if (len == 0) {
      continue;
    }
    // Journal the bytes this step is about to destroy, then (only once
    // that undo image is durable) execute the move. A crash anywhere in
    // between rolls back to the original file via reverse replay.
    JournalRecord move;
    move.type = JournalRecordType::kBlockMove;
    move.target_offset = step.target_offset;
    FSYNC_RETURN_IF_ERROR(
        file.ReadAt(step.target_offset, len, &move.undo));
    FSYNC_RETURN_IF_ERROR(journal.Append(move));

    if (step.kind == ReconstructCommand::kLiteral) {
      FSYNC_RETURN_IF_ERROR(file.WriteAt(step.target_offset, step.literal));
    } else {
      FSYNC_RETURN_IF_ERROR(file.ReadAt(step.source_offset, len, &scratch));
      FSYNC_RETURN_IF_ERROR(file.WriteAt(step.target_offset, scratch));
    }
    FireCrashPoint("inplace:step");
    ++out.steps_executed;
  }

  // A shrink discards [new_size, old_size) — bytes no step journaled.
  // Capture that tail as one more undo image before the truncate, so a
  // crash before COMMIT can restore it: reverse replay writes the tail
  // back first, earlier undo images then fix any of those bytes a step
  // had already overwritten, and Truncate(old_size) is a no-op.
  if (new_size < old_content.size()) {
    JournalRecord tail;
    tail.type = JournalRecordType::kBlockMove;
    tail.target_offset = new_size;
    FSYNC_RETURN_IF_ERROR(
        file.ReadAt(new_size, old_content.size() - new_size, &tail.undo));
    FSYNC_RETURN_IF_ERROR(journal.Append(tail));
  }
  FSYNC_RETURN_IF_ERROR(file.Truncate(new_size));
  FSYNC_RETURN_IF_ERROR(file.Sync());
  file.Close();

  JournalRecord commit;
  commit.type = JournalRecordType::kCommit;
  FSYNC_RETURN_IF_ERROR(journal.Append(commit));
  journal.Close();
  FSYNC_RETURN_IF_ERROR(RemoveJournal(journal_path));
  obs::AddEvent(obs, obs::Event::kJournalCommit);
  return out;
}

StatusOr<InPlaceRecoverResult> RecoverInPlaceFile(const std::string& path,
                                                  obs::SyncObserver* obs) {
  InPlaceRecoverResult res;
  fs::path target(path);
  fs::path journal_path = target;
  journal_path += kJournalSuffix;

  auto contents = ReadJournal(journal_path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) {
      return res;
    }
    if (contents.status().code() == StatusCode::kDataLoss) {
      if (!JournalFilePlausible(journal_path)) {
        // Not a journal at all: a pre-existing user file that merely
        // ends in the journal suffix. The apply side refuses to create
        // such names (ValidateRelPath), so it is not ours to delete.
        res.foreign = true;
        return res;
      }
      // Journal died at creation: no undo record means no mutation ever
      // executed, so the file is untouched. Just clear the journal.
      res.had_journal = true;
      FSYNC_RETURN_IF_ERROR(RemoveJournal(journal_path));
      obs::AddEvent(obs, obs::Event::kRecovery);
      return res;
    }
    return contents.status();
  }
  res.had_journal = true;

  if (contents->committed) {
    res.completed = true;  // the file is the new one; only cleanup left
    FSYNC_RETURN_IF_ERROR(RemoveJournal(journal_path));
    obs::AddEvent(obs, obs::Event::kRecovery);
    return res;
  }

  bool have_begin = false;
  uint64_t old_size = 0;
  std::vector<const JournalRecord*> moves;
  for (const JournalRecord& r : contents->records) {
    if (r.type == JournalRecordType::kBegin) {
      have_begin = true;
      old_size = r.old_size;
    } else if (r.type == JournalRecordType::kBlockMove) {
      moves.push_back(&r);
    }
  }

  std::error_code ec;
  if (have_begin && fs::is_regular_file(target, ec)) {
    auto file_or = RandomAccessFile::Open(target);
    if (!file_or.ok()) {
      return file_or.status();
    }
    RandomAccessFile file = std::move(file_or).value();
    // Reverse replay: each byte ends at the undo image of the earliest
    // step that touched it — the original content — no matter which of
    // the interrupted writes actually reached disk.
    for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
      FSYNC_RETURN_IF_ERROR(file.WriteAt((*it)->target_offset, (*it)->undo));
    }
    FSYNC_RETURN_IF_ERROR(file.Truncate(old_size));
    FSYNC_RETURN_IF_ERROR(file.Sync());
    file.Close();
    res.rolled_back = true;
    obs::AddEvent(obs, obs::Event::kRolledBackFile);
  }

  FSYNC_RETURN_IF_ERROR(RemoveJournal(journal_path));
  obs::AddEvent(obs, obs::Event::kRecovery);
  return res;
}

}  // namespace fsx::store
