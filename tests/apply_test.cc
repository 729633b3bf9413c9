// Durable-apply behavior without crashes: transaction happy paths,
// concurrent-modification conflicts, and recovery no-ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fsync/obs/sync_obs.h"
#include "fsync/store/apply.h"
#include "fsync/store/journal.h"
#include "fsync/store/vfs.h"
#include "fsync/store/vfs_fault.h"

namespace fsx::store {
namespace {

namespace fs = std::filesystem;

class ApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fsx_apply_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteRaw(const std::string& rel, const std::string& content) {
    fs::path p = fs::path(root_) / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p, std::ios::binary) << content;
  }

  std::string root_;
};

Collection SampleFiles() {
  Collection c;
  c["a.txt"] = ToBytes("alpha");
  c["dir/b.txt"] = ToBytes("bravo bravo");
  c["dir/deep/c.bin"] = ToBytes("charlie");
  return c;
}

Bytes FileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes{std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>()};
}

TEST_F(ApplyTest, ApplyTreeWritesVerifiableTree) {
  Collection files = SampleFiles();
  obs::SyncObserver obs;
  auto report = ApplyTree(root_, files, Manifest{}, {}, &obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_committed, files.size());
  EXPECT_EQ(report->files_unchanged, 0u);
  EXPECT_TRUE(report->conflicts.empty());
  EXPECT_FALSE(report->recovered);
  EXPECT_EQ(obs.event_count(obs::Event::kJournalCommit), 1u);
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 0u);

  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, files);
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  EXPECT_TRUE(dirty->empty());
  EXPECT_FALSE(fs::exists(fs::path(root_) / kJournalName));
}

TEST_F(ApplyTest, HostileManifestPathsAbortBeforeTouchingDisk) {
  // A manifest is wire data: a compromised or malicious server must not
  // be able to name its way out of the destination tree. The whole
  // apply aborts (not a per-file skip) before anything is written —
  // also when the hostile name sorts after safe ones, so the tree holds
  // no file, no journal, no manifest.
  const std::string outside_marker = root_ + "_outside_marker";
  fs::remove(outside_marker);
  for (const std::string evil :
       {"../escape", "/etc/fsx_apply_test", "dir/../../escape", "..",
        "a\\..\\b", "dir//double", "b\nc", "z.fsx-journal"}) {
    Collection files = SampleFiles();
    files[evil] = ToBytes("pwned");
    auto report = ApplyTree(root_, files, Manifest{});
    EXPECT_FALSE(report.ok()) << evil;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << evil;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(root_, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      EXPECT_FALSE(it->is_regular_file()) << evil << " left " << it->path();
    }
  }
  EXPECT_FALSE(fs::exists(outside_marker));
  EXPECT_FALSE(fs::exists(fs::path(root_).parent_path() / "escape"));
}

TEST_F(ApplyTest, UnchangedFilesAreSkippedNotRewritten) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);
  auto report = ApplyTree(root_, files, expected);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_committed, 0u);
  EXPECT_EQ(report->files_unchanged, files.size());
}

TEST_F(ApplyTest, DeleteExtraRespectsMirrorSemantics) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);
  Collection fewer = files;
  fewer.erase("dir/b.txt");
  auto report = ApplyTree(root_, fewer, expected);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->files_deleted, 1u);
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, fewer);
}

TEST_F(ApplyTest, ConflictingOverwriteIsSkippedAndReported) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  // Someone edits a.txt behind the syncer's back.
  WriteRaw("a.txt", "locally edited");

  Collection next = files;
  next["a.txt"] = ToBytes("update from source");
  next["dir/b.txt"] = ToBytes("bravo v2");
  obs::SyncObserver obs;
  auto report = ApplyTree(root_, next, expected, {}, &obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0], "a.txt");
  EXPECT_EQ(report->files_committed, 1u);  // dir/b.txt still applied
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 1u);

  // The local edit survives; the rest of the tree is updated; the
  // manifest reflects what is actually on disk, so verify is clean.
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)["a.txt"], ToBytes("locally edited"));
  EXPECT_EQ((*back)["dir/b.txt"], ToBytes("bravo v2"));
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok());
  EXPECT_TRUE(dirty->empty());
}

TEST_F(ApplyTest, ConflictingDeleteIsSkipped) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  WriteRaw("dir/b.txt", "changed since scan");
  Collection fewer = files;
  fewer.erase("dir/b.txt");

  auto report = ApplyTree(root_, fewer, expected);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0], "dir/b.txt");
  EXPECT_EQ(report->files_deleted, 0u);
  EXPECT_TRUE(fs::exists(fs::path(root_) / "dir/b.txt"));
}

TEST_F(ApplyTest, FileAppearingMidApplyIsNotDeleted) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  // A file the syncer never saw appears; mirror deletion must not eat
  // it (expected_old is null for it).
  WriteRaw("surprise.txt", "appeared mid-apply");

  auto report = ApplyTree(root_, files, expected);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->conflicts.size(), 1u);
  EXPECT_EQ(report->conflicts[0], "surprise.txt");
  EXPECT_TRUE(fs::exists(fs::path(root_) / "surprise.txt"));
}

// The unchanged test is a byte comparison of the disk file against the
// new content; the disk bytes are hashed only when they differ. These
// pin that the shortcut did not weaken the conflict rule: a file the
// sync leaves alone but the user edited is still reported and kept.

using Action = FileApplyOutcome::Action;

std::vector<std::pair<std::string, Action>> Outcomes(
    const ApplyReport& report) {
  std::vector<std::pair<std::string, Action>> out;
  for (const FileApplyOutcome& f : report.files) {
    out.emplace_back(f.path, f.action);
  }
  return out;
}

Manifest CommittedManifest(const fs::path& root) {
  auto parsed = ParseManifest(FileBytes(root / ".fsx-manifest"));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : Manifest{};
}

TEST_F(ApplyTest, EditOfAnUnchangedFileIsAConflictAtAnySize) {
  for (const std::string edit : {"alpha, edited locally", "alphA"}) {
    SCOPED_TRACE(edit);
    fs::remove_all(root_);
    Collection files = SampleFiles();
    ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
    Manifest expected = BuildManifest(files);

    // a.txt is not changed by this sync, but was edited on disk — to a
    // new size, then to the same size as the synced "alpha".
    WriteRaw("a.txt", edit);
    Collection next = files;
    next["dir/b.txt"] = ToBytes("bravo v2");
    obs::SyncObserver obs;
    auto report = ApplyTree(root_, next, expected, {}, &obs);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    std::vector<std::pair<std::string, Action>> want = {
        {"a.txt", Action::kConflictSkipped},
        {"dir/b.txt", Action::kCommitted},
        {"dir/deep/c.bin", Action::kUnchanged}};
    EXPECT_EQ(Outcomes(*report), want);
    EXPECT_EQ(report->conflicts, std::vector<std::string>{"a.txt"});
    EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 1u);
    EXPECT_EQ(FileBytes(fs::path(root_) / "a.txt"), ToBytes(edit));

    // The committed manifest records what the user left on disk.
    Manifest on_disk = BuildManifest(next);
    on_disk["a.txt"] = ManifestEntry{FileFingerprint(ToBytes(edit)),
                                     edit.size()};
    EXPECT_EQ(CommittedManifest(root_), on_disk);
    auto dirty = VerifyTree(root_);
    ASSERT_TRUE(dirty.ok());
    EXPECT_TRUE(dirty->empty());
  }
}

TEST_F(ApplyTest, DiskAlreadyHoldingTheNewBytesIsUnchangedNotAConflict) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  Manifest expected = BuildManifest(files);

  // The new a.txt is already on disk (a copy made by hand, a previous
  // apply that died before its manifest rewrite) while `expected` still
  // names the old bytes.
  Collection next = files;
  next["a.txt"] = ToBytes("alpha, second edition");
  WriteRaw("a.txt", "alpha, second edition");
  obs::SyncObserver obs;
  auto report = ApplyTree(root_, next, expected, {}, &obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::vector<std::pair<std::string, Action>> want = {
      {"a.txt", Action::kUnchanged},
      {"dir/b.txt", Action::kUnchanged},
      {"dir/deep/c.bin", Action::kUnchanged}};
  EXPECT_EQ(Outcomes(*report), want);
  EXPECT_TRUE(report->conflicts.empty());
  EXPECT_EQ(report->files_committed, 0u);
  EXPECT_EQ(obs.event_count(obs::Event::kConflictDetected), 0u);
  EXPECT_EQ(CommittedManifest(root_), BuildManifest(next));
}

TEST_F(ApplyTest, FifoAtATargetPathNeitherBlocksNorCounts) {
  // The re-check opens the target without a stat first. A FIFO there
  // must read as "no regular file" at once, not wait for a writer.
  fs::create_directories(root_);
  const fs::path fifo = fs::path(root_) / "a.txt";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  Collection files = SampleFiles();
  auto apply = std::async(std::launch::async,
                          [&] { return ApplyTree(root_, files, Manifest{}); });
  if (apply.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // Release the blocked reader, so a regression fails instead of hangs.
    int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd >= 0) {
      ::close(fd);
    }
    ADD_FAILURE() << "the apply blocked opening a FIFO";
  }
  auto report = apply.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_committed, files.size());
  EXPECT_TRUE(report->conflicts.empty());
  EXPECT_EQ(FileBytes(fs::path(root_) / "a.txt"), ToBytes("alpha"));
}

// The store's tree walks name files lexically from the walk's root, so
// every spelling of the same directory must yield the same names, the
// same mirror delete and the same untouched bookkeeping files.
TEST_F(ApplyTest, EveryRootSpellingNamesTheSameFiles) {
  const fs::path dir(root_);
  const fs::path parent = dir.parent_path();
  const std::string name = dir.filename().string();
  const fs::path link = parent / (name + "_link");
  fs::remove(link);
  fs::create_directories(dir);
  fs::create_directory_symlink(dir, link);
  struct Restore {  // runs on ASSERT's early return too
    fs::path cwd, link;
    ~Restore() {
      std::error_code ec;
      fs::current_path(cwd, ec);
      fs::remove(link, ec);
    }
  } restore{fs::current_path(), link};
  fs::current_path(parent);

  Collection files = SampleFiles();
  Collection seeded = files;
  seeded["dir/extra.txt"] = ToBytes("only on the replica");
  const Manifest want = BuildManifest(files);
  for (const std::string& root :
       {root_ + "/", "./" + name, root_ + "/../" + name, link.string()}) {
    SCOPED_TRACE(root);
    fs::remove_all(dir);
    ASSERT_TRUE(ApplyTree(root_, seeded, Manifest{}).ok());
    WriteRaw("dir/notes.fsx-journal", "not a journal, but journal-named");

    auto report = ApplyTree(root, files, BuildManifest(seeded));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::vector<std::pair<std::string, Action>> applied = {
        {"a.txt", Action::kUnchanged},
        {"dir/b.txt", Action::kUnchanged},
        {"dir/deep/c.bin", Action::kUnchanged},
        {"dir/extra.txt", Action::kDeleted}};
    EXPECT_EQ(Outcomes(*report), applied);
    EXPECT_TRUE(report->conflicts.empty());
    EXPECT_EQ(CommittedManifest(dir), want);

    auto loaded = LoadTree(root);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, files);

    // Recovery's manifest refresh: a leftover journal makes RecoverTree
    // rebuild the (here emptied) manifest from the files on disk.
    WriteRaw(".fsx-manifest", "");
    {
      auto w = JournalWriter::Create(dir / kJournalName);
      ASSERT_TRUE(w.ok());
      JournalRecord begin;
      begin.type = JournalRecordType::kBegin;
      ASSERT_TRUE(w->Append(begin).ok());
    }
    auto rec = RecoverTree(root);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_TRUE(rec->had_journal);
    EXPECT_EQ(CommittedManifest(dir), want);
    EXPECT_EQ(FileBytes(dir / "dir/notes.fsx-journal"),
              ToBytes("not a journal, but journal-named"));
  }
}

TEST_F(ApplyTest, RecoverTreeIsANoOpOnCleanTree) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  obs::SyncObserver obs;
  auto rec = RecoverTree(root_, &obs);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_FALSE(rec->had_journal);
  EXPECT_EQ(rec->rolled_back_files, 0u);
  EXPECT_EQ(rec->cleaned_temps, 0u);
  EXPECT_EQ(obs.event_count(obs::Event::kRecovery), 0u);
  auto rec2 = RecoverTree(root_ + "/no_such_dir");
  ASSERT_TRUE(rec2.ok());
  EXPECT_FALSE(rec2->had_journal);
}

TEST_F(ApplyTest, RecoverTreeSweepsStrandedTemps) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  WriteRaw("dir/b.txt.fsx-tmp", "torn staging debris");
  obs::SyncObserver obs;
  auto rec = RecoverTree(root_, &obs);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->cleaned_temps, 1u);
  EXPECT_FALSE(fs::exists(fs::path(root_) / "dir/b.txt.fsx-tmp"));
  EXPECT_EQ(obs.event_count(obs::Event::kRolledBackFile), 1u);
  // The debris never reached the content namespace.
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)["dir/b.txt"], ToBytes("bravo bravo"));
}

TEST_F(ApplyTest, RecoverTreeToleratesSymlinksInTree) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  // A legitimate symlink the strict LoadTree refuses, plus a leftover
  // uncommitted journal. Recovery must still converge (lenient manifest
  // rebuild) — otherwise the journal is never removed and every future
  // apply on this tree fails permanently.
  fs::create_symlink("a.txt", fs::path(root_) / "link.txt");
  {
    auto w = JournalWriter::Create(fs::path(root_) / kJournalName);
    ASSERT_TRUE(w.ok());
    JournalRecord begin;
    begin.type = JournalRecordType::kBegin;
    ASSERT_TRUE(w->Append(begin).ok());
  }

  obs::SyncObserver obs;
  auto rec = RecoverTree(root_, &obs);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->had_journal);
  EXPECT_FALSE(fs::exists(fs::path(root_) / kJournalName));
  EXPECT_TRUE(fs::is_symlink(fs::path(root_) / "link.txt"));

  // A fresh apply (whose Begin recovers first) works again.
  auto report = ApplyTree(root_, files, BuildManifest(files));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(ApplyTest, RecoveryLeavesForeignJournalSuffixedFilesAlone) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  // A pre-existing user file that merely ends in the journal suffix:
  // its content is not a journal (wrong magic), so recovery must not
  // treat it as a crashed journal and delete it.
  WriteRaw("notes.fsx-journal", "my notes, definitely not a journal");

  auto rec = RecoverTree(root_);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(FileBytes(fs::path(root_) / "notes.fsx-journal"),
            ToBytes("my notes, definitely not a journal"));
}

// Passes every call to `base` and records the name of each file it
// opens.
class OpenRecordingVfs : public Vfs {
 public:
  explicit OpenRecordingVfs(Vfs& base) : base_(base) {}

  StatusOr<std::unique_ptr<VfsFile>> Open(const fs::path& path,
                                          OpenMode mode) override {
    opened.push_back(path.filename().string());
    return base_.Open(path, mode);
  }
  Status Rename(const fs::path& from, const fs::path& to) override {
    return base_.Rename(from, to);
  }
  StatusOr<bool> Unlink(const fs::path& path) override {
    return base_.Unlink(path);
  }
  Status Mkdir(const fs::path& path) override { return base_.Mkdir(path); }
  Status FsyncPath(const fs::path& path) override {
    return base_.FsyncPath(path);
  }

  std::vector<std::string> opened;

 private:
  Vfs& base_;
};

// No apply writes a per-file journal, so a journal-named file is never
// debris: whatever it holds, and however opening it would fail, the
// apply's walk does not open it and nothing recovers it.
TEST_F(ApplyTest, ForeignJournalMakesNoRecoveryPass) {
  Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root_, files, Manifest{}).ok());
  const std::string name = "a.txt.fsx-journal";
  const fs::path path = fs::path(root_) / name;
  const fs::perms rw = fs::perms::owner_read | fs::perms::owner_write;
  struct Input {
    const char* label;
    std::string content;
    bool eio_on_open;
    fs::perms perms;
  };
  const std::vector<Input> inputs = {
      {"foreign text", "not a journal, but journal-named", false, rw},
      {"torn journal magic", "FSX", false, rw},
      {"sticky EIO on open", "nobody can read it", true, rw},
      {"mode 000", "nobody can read it", false, fs::perms::none},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.label);
    WriteRaw(name, in.content);
    fs::permissions(path, in.perms);
    FaultVfs fault;
    if (in.eio_on_open) {
      fault.AddRule({.path_pattern = name,
                     .op_mask = VfsOpBit(VfsOp::kOpen),
                     .fail_at_op = 0,
                     .fail_errno = EIO,
                     .sticky = true});
    }
    OpenRecordingVfs vfs(fault);
    {
      ScopedVfs scoped(&vfs);
      auto report = ApplyTree(root_, files, BuildManifest(files));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_FALSE(report->recovered);
      EXPECT_EQ(report->files_unchanged, files.size());
    }
    fs::permissions(path, rw);
    EXPECT_FALSE(vfs.opened.empty());  // the apply's own journal
    EXPECT_EQ(std::count(vfs.opened.begin(), vfs.opened.end(), name), 0);
    EXPECT_EQ(fault.faults_injected(), 0u);
    EXPECT_EQ(FileBytes(path), ToBytes(in.content));
  }
}

TEST_F(ApplyTest, ApplyRejectsUnsafeAndReservedPaths) {
  ApplyTransaction txn(root_, {});
  ASSERT_TRUE(txn.Begin().ok());
  EXPECT_FALSE(txn.WriteFile("../escape", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile("/abs", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile(".fsx-manifest", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile("a.fsx-tmp", ToBytes("x"), nullptr).ok());
  EXPECT_FALSE(txn.WriteFile(".fsx-journal", ToBytes("x"), nullptr).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(ApplyTest, TransactionLifecycleIsEnforced) {
  ApplyTransaction txn(root_, {});
  EXPECT_EQ(txn.WriteFile("a", ToBytes("x"), nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(txn.Commit().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(txn.Begin().ok());
  EXPECT_EQ(txn.Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fsx::store
