// Disk-fault sweeps for the durable-apply subsystem — the storage-fault
// analogue of the kill-point crash suite (crash_test.cc). Each sweep
// counts the vfs operations a scenario performs, then re-runs it once
// per op index with a FaultVfs armed to fail exactly that operation,
// asserting the degradation contract: the operation surfaces a typed
// error (or survives via its retry path — never silent success on
// unverified bytes), every file is bit-exactly old or new, and a
// fault-free RecoverTree plus re-apply converges with no debris.
//
// The tree sweeps also run from a warm stat index (`.fsx-index`,
// store/tree_index.h). Its rewrite is the last thing an apply does, after
// COMMIT: a fault there must never fail the committed apply, and the
// next apply must decide exactly as it would with no index at all.
//
// Runs in-process (a disk fault is an error return, not a process
// death), so the whole suite is asan/tsan-clean by construction.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "fsync/obs/sync_obs.h"
#include "fsync/store/apply.h"
#include "fsync/store/journal.h"
#include "fsync/store/tree_index.h"
#include "fsync/store/vfs.h"
#include "fsync/store/vfs_fault.h"
#include "fsync/testing/diskfault.h"
#include "fsync/testing/racy_clock.h"

namespace fsx::store {
namespace {

namespace fs = std::filesystem;
using fsx::testing::CountDiskOps;
using fsx::testing::DiskFaultRun;
using fsx::testing::RunWithDiskFaultAt;

Bytes FileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes{std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>()};
}

Collection OldTree() {
  Collection c;
  c["keep.txt"] = ToBytes("keep me exactly as I am");
  c["change.txt"] = ToBytes("old content of the changed file");
  c["dir/nested.bin"] = ToBytes("old nested bytes");
  c["doomed.txt"] = ToBytes("this file gets deleted");
  return c;
}

Collection NewTree() {
  Collection c = OldTree();
  c["change.txt"] = ToBytes("NEW content, longer than the old one was");
  c["dir/nested.bin"] = ToBytes("NEW nested");
  c["added.txt"] = ToBytes("a brand new file");
  c.erase("doomed.txt");
  return c;
}

using Action = FileApplyOutcome::Action;

std::vector<std::pair<std::string, Action>> Outcomes(
    const ApplyReport& report) {
  std::vector<std::pair<std::string, Action>> out;
  for (const FileApplyOutcome& f : report.files) {
    out.emplace_back(f.path, f.action);
  }
  return out;
}

class DiskChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fsx_diskchaos_" + std::to_string(::testing::UnitTest::
                                                    GetInstance()
                                                        ->random_seed()) +
              "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  /// The old tree with its manifest; with `warm_index_`, also a stat
  /// index that records every file (a no-op apply past the clock tick).
  void ResetTree() {
    fs::remove_all(root_);
    ASSERT_TRUE(ApplyTree(root_, OldTree(), Manifest{}).ok());
    if (warm_index_) {
      fsx::testing::WaitPastCoarseTick();
      ASSERT_TRUE(ApplyTree(root_, OldTree(), BuildManifest(OldTree())).ok());
      ASSERT_EQ(TreeIndex::Load(root_).size(), OldTree().size());
    }
  }

  StatusOr<ApplyReport> RunApply(obs::SyncObserver* obs = nullptr) {
    return ApplyTree(root_, NewTree(), BuildManifest(OldTree()), {}, obs);
  }

  /// How many vfs ops of a fault-free RunApply come before the stat
  /// index rewrite, which is the last thing an apply does: a fault at
  /// any later op hits a committed apply.
  uint64_t OpsBeforeIndexWrite() {
    ResetTree();
    const uint64_t total = CountDiskOps([&] { return RunApply().ok(); });
    ResetTree();
    const uint64_t index_ops =
        CountDiskOps([&] { return RunApply().ok(); }, kIndexName);
    EXPECT_GT(index_ops, 0u) << "the apply wrote no index";
    return total - index_ops;
  }

  /// The per-file contract under a disk fault: every surviving path is
  /// bit-exactly its old or new version — never torn, never foreign.
  void ExpectOldOrNew(const std::string& context) {
    Collection old_files = OldTree();
    Collection new_files = NewTree();
    auto disk = LoadTree(root_);
    ASSERT_TRUE(disk.ok()) << context << ": " << disk.status().ToString();
    for (const auto& [name, data] : *disk) {
      bool is_old = old_files.contains(name) && old_files.at(name) == data;
      bool is_new = new_files.contains(name) && new_files.at(name) == data;
      EXPECT_TRUE(is_old || is_new)
          << context << ": torn or foreign content in " << name;
    }
    for (const auto& [name, data] : old_files) {
      if (!new_files.contains(name)) {
        continue;  // deletion in flight: old or absent are both fine
      }
      EXPECT_TRUE(disk->contains(name))
          << context << ": " << name << " vanished";
    }
  }

  void ExpectNoApplyDebris(const std::string& context) {
    for (auto it = fs::recursive_directory_iterator(root_);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) {
        continue;
      }
      std::string name = it->path().filename().string();
      EXPECT_FALSE(name.ends_with(kTempSuffix))
          << context << ": stranded temp " << it->path();
      EXPECT_FALSE(name.ends_with(kJournalSuffix))
          << context << ": surviving journal " << it->path();
    }
  }

  /// Fault-free convergence: recover, re-apply, verify clean. The
  /// re-apply runs on the tree with whatever index survived and on a
  /// copy without one; both must decide and commit the same.
  void ExpectConverges(const std::string& context) {
    auto rec = RecoverTree(root_);
    ASSERT_TRUE(rec.ok()) << context << ": " << rec.status().ToString();
    ExpectOldOrNew(context + " post-recovery");
    ExpectNoApplyDebris(context + " post-recovery");
    const std::string bare = root_ + "_no_index";
    fs::remove_all(bare);
    fs::copy(root_, bare, fs::copy_options::recursive);
    fs::remove(fs::path(bare) / kIndexName);
    auto redo = RunApply();
    ASSERT_TRUE(redo.ok()) << context << ": " << redo.status().ToString();
    auto bare_redo = ApplyTree(bare, NewTree(), BuildManifest(OldTree()));
    ASSERT_TRUE(bare_redo.ok()) << context << ": "
                                << bare_redo.status().ToString();
    EXPECT_EQ(Outcomes(*redo), Outcomes(*bare_redo))
        << context << ": the surviving index changed the apply";
    EXPECT_EQ(redo->conflicts, bare_redo->conflicts) << context;
    EXPECT_EQ(FileBytes(fs::path(root_) / ".fsx-manifest"),
              FileBytes(fs::path(bare) / ".fsx-manifest"))
        << context << ": the surviving index changed the manifest";
    fs::remove_all(bare);
    auto disk = LoadTree(root_);
    ASSERT_TRUE(disk.ok()) << context;
    EXPECT_EQ(*disk, NewTree()) << context << ": re-apply did not converge";
    auto dirty = VerifyTree(root_);
    ASSERT_TRUE(dirty.ok()) << context;
    EXPECT_TRUE(dirty->empty()) << context << ": manifest disagrees";
  }

  /// One full op-index sweep of the tree apply under `fault_errno`.
  void SweepTreeApply(int fault_errno, const char* what) {
    const uint64_t committed_after = OpsBeforeIndexWrite();
    ResetTree();
    uint64_t total = CountDiskOps([&] { return RunApply().ok(); });
    ASSERT_GT(total, 0u) << "apply performed no vfs ops";

    for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
      std::string ctx =
          std::string(what) + " fault at op " + std::to_string(n);
      ResetTree();
      Status failure = Status::Ok();
      DiskFaultRun run = RunWithDiskFaultAt(n, fault_errno, [&] {
        auto r = RunApply();
        failure = r.status();
        return r.ok();
      });
      ASSERT_GT(run.faults_injected, 0u) << ctx << ": fault never fired";
      if (static_cast<uint64_t>(n) >= committed_after) {
        EXPECT_TRUE(run.fn_ok)
            << ctx << ": a fault in the index write failed a committed "
            << "apply: " << failure.ToString();
      }
      if (!run.fn_ok) {
        // A surfaced failure must be typed, never a bare kInternal.
        EXPECT_NE(failure.code(), StatusCode::kInternal)
            << ctx << ": untyped error: " << failure.ToString();
        EXPECT_NE(failure.code(), StatusCode::kOk) << ctx;
      }
      ExpectOldOrNew(ctx + " pre-recovery");
      ExpectConverges(ctx);
    }
  }

  /// The tree apply under a sticky EIO from each op index on.
  void SweepStickyEio() {
    // Sticky: the disk stays broken for the rest of the run — the retry
    // ladder must give up with a typed error, and a later clean disk must
    // still converge. Once the transaction has committed, only the index
    // rewrite is left to fail, and the apply reports success.
    const uint64_t committed_after = OpsBeforeIndexWrite();
    ResetTree();
    uint64_t total = CountDiskOps([&] { return RunApply().ok(); });
    ASSERT_GT(total, 0u);
    for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
      std::string ctx = "sticky EIO at op " + std::to_string(n);
      ResetTree();
      Status failure = Status::Ok();
      DiskFaultRun run = RunWithDiskFaultAt(
          n, EIO,
          [&] {
            auto r = RunApply();
            failure = r.status();
            return r.ok();
          },
          /*path_pattern=*/"", /*sticky=*/true);
      ASSERT_GT(run.faults_injected, 0u) << ctx;
      if (static_cast<uint64_t>(n) >= committed_after) {
        EXPECT_TRUE(run.fn_ok) << ctx << ": a fault in the index write "
                               << "failed a committed apply: "
                               << failure.ToString();
      } else {
        EXPECT_FALSE(run.fn_ok) << ctx << ": sticky EIO reported success";
        EXPECT_TRUE(failure.code() == StatusCode::kUnavailable ||
                    failure.code() == StatusCode::kDataLoss ||
                    failure.code() == StatusCode::kNotFound)
            << ctx << ": " << failure.ToString();
      }
      ExpectOldOrNew(ctx + " pre-recovery");
      ExpectConverges(ctx);
    }
  }

  std::string root_;
  bool warm_index_ = false;
};

// ---------------------------------------------------------------------------
// Tree apply sweeps
// ---------------------------------------------------------------------------

TEST_F(DiskChaosTest, TreeApplySurvivesEioAtEveryOp) {
  SweepTreeApply(EIO, "EIO");
}

TEST_F(DiskChaosTest, TreeApplySurvivesEnospcAtEveryOp) {
  SweepTreeApply(ENOSPC, "ENOSPC");
}

TEST_F(DiskChaosTest, TreeApplySurvivesEioAtEveryOpWithWarmIndex) {
  warm_index_ = true;
  SweepTreeApply(EIO, "EIO, warm index,");
}

TEST_F(DiskChaosTest, TreeApplySurvivesEnospcAtEveryOpWithWarmIndex) {
  warm_index_ = true;
  SweepTreeApply(ENOSPC, "ENOSPC, warm index,");
}

TEST_F(DiskChaosTest, TreeApplySurvivesStickyEioAtEveryOp) {
  SweepStickyEio();
}

TEST_F(DiskChaosTest, TreeApplySurvivesStickyEioAtEveryOpWithWarmIndex) {
  warm_index_ = true;
  SweepStickyEio();
}

// ---------------------------------------------------------------------------
// Recovery under fault
// ---------------------------------------------------------------------------

TEST_F(DiskChaosTest, RecoverySurvivesEioAtEveryOp) {
  // Produce a genuinely interrupted apply: a sticky EIO partway through
  // leaves a journal and staged temps behind.
  auto interrupt = [&] {
    ResetTree();
    DiskFaultRun run = RunWithDiskFaultAt(
        12, EIO, [&] { return RunApply().ok(); }, "", /*sticky=*/true);
    ASSERT_GT(run.faults_injected, 0u);
    ASSERT_FALSE(run.fn_ok);
  };

  interrupt();
  uint64_t total = CountDiskOps([&] { return RecoverTree(root_).ok(); });
  // An interrupted apply may have aborted cleanly already; recovery then
  // fires few ops, but never zero (the directory walk's journal probe).
  for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
    std::string ctx = "recovery fault at op " + std::to_string(n);
    interrupt();
    Status failure = Status::Ok();
    DiskFaultRun run = RunWithDiskFaultAt(n, EIO, [&] {
      auto r = RecoverTree(root_);
      failure = r.status();
      return r.ok();
    });
    if (run.faults_injected == 0) {
      continue;  // this interrupted state fires fewer ops than the probe
    }
    if (!run.fn_ok) {
      EXPECT_NE(failure.code(), StatusCode::kOk) << ctx;
    }
    ExpectOldOrNew(ctx + " pre-clean-recovery");
    ExpectConverges(ctx);  // recovery is idempotent: clean re-run finishes
  }
}

// ---------------------------------------------------------------------------
// ENOSPC budget: abort and roll back, never half-apply
// ---------------------------------------------------------------------------

TEST_F(DiskChaosTest, EnospcMidTransactionAbortsAndRollsBack) {
  ResetTree();
  obs::SyncObserver obs;
  Status failure = Status::Ok();
  {
    FaultVfs vfs;
    DiskFaultRule rule;
    rule.enospc_after_bytes = 64;  // room for the journal, not the files
    vfs.AddRule(rule);
    ScopedVfs scoped(&vfs);
    auto r = RunApply(&obs);
    failure = r.status();
    EXPECT_FALSE(r.ok());
    EXPECT_GT(vfs.faults_injected(), 0u);
  }
  EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted)
      << failure.ToString();
  EXPECT_GE(obs.event_count(obs::Event::kEnospcAbort), 1u);
  ExpectOldOrNew("post-ENOSPC");
  ExpectConverges("post-ENOSPC");
}

// ---------------------------------------------------------------------------
// fsyncgate: a failed fsync is never reported as success
// ---------------------------------------------------------------------------

TEST_F(DiskChaosTest, FailedFsyncWithStaleReadsIsRepairedOrTyped) {
  ResetTree();
  uint64_t fsync_failures_before =
      GlobalVfsCounters().fsync_failures.load();
  obs::SyncObserver obs;
  Status result = Status::Ok();
  {
    FaultVfs vfs;
    DiskFaultRule rule;
    rule.fsync_stale = true;  // one-shot: fsync fails AND content reverts
    rule.path_pattern = "change.txt";
    vfs.AddRule(rule);
    ScopedVfs scoped(&vfs);
    auto r = RunApply(&obs);
    result = r.status();
    EXPECT_GT(vfs.faults_injected(), 0u) << "fsyncgate never armed";
  }
  EXPECT_GT(GlobalVfsCounters().fsync_failures.load(),
            fsync_failures_before)
      << "failed fsync was not counted";
  if (result.ok()) {
    // The retry path repaired the file: it must hold the verified new
    // bytes, not the stale pre-fsync content the fault restored.
    EXPECT_GE(obs.event_count(obs::Event::kDiskRetry), 1u);
    auto disk = LoadTree(root_);
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ(*disk, NewTree()) << "success claimed over stale bytes";
  } else {
    EXPECT_TRUE(result.code() == StatusCode::kDataLoss ||
                result.code() == StatusCode::kUnavailable)
        << result.ToString();
    ExpectOldOrNew("fsyncgate failure path");
  }
  ExpectConverges("fsyncgate");
}

TEST_F(DiskChaosTest, StickyFsyncFailureSurfacesTypedErrorNotSuccess) {
  ResetTree();
  Status result = Status::Ok();
  {
    FaultVfs vfs;
    DiskFaultRule rule;
    rule.op_mask = VfsOpBit(VfsOp::kFsync);
    rule.fail_at_op = 0;
    rule.fail_errno = EIO;
    rule.sticky = true;
    rule.path_pattern = std::string("change.txt") + kTempSuffix;
    vfs.AddRule(rule);
    ScopedVfs scoped(&vfs);
    auto r = RunApply();
    result = r.status();
    EXPECT_GE(vfs.faults_injected(), 2u)
        << "retry did not re-attempt the fsync";
  }
  ASSERT_FALSE(result.ok()) << "persistent fsync failure reported success";
  EXPECT_EQ(result.code(), StatusCode::kDataLoss) << result.ToString();
  ExpectOldOrNew("sticky fsync");
  ExpectConverges("sticky fsync");
}

// ---------------------------------------------------------------------------
// Hostile store inputs: typed status, no crash, no silent success
// ---------------------------------------------------------------------------

TEST_F(DiskChaosTest, JournalThatIsADirectoryIsATypedError) {
  ResetTree();
  fs::create_directory(fs::path(root_) / kJournalName);
  auto contents = ReadJournal(fs::path(root_) / kJournalName);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kFailedPrecondition)
      << contents.status().ToString();
  // Recovery refuses to conclude "nothing in flight" from an unreadable
  // journal.
  auto rec = RecoverTree(root_);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
  fs::remove(fs::path(root_) / kJournalName);
}

TEST_F(DiskChaosTest, CheckpointThatIsADirectoryIsATypedError) {
  fs::create_directories(root_);
  fs::path cp = fs::path(root_) / "session.ckpt";
  fs::create_directory(cp);
  auto loaded = LoadCheckpointFile(cp.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status().ToString();
}

TEST_F(DiskChaosTest, UnreadableJournalIsATypedError) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "permission bits do not bind root; the EACCES path "
                    "is covered by errno injection below";
  }
  ResetTree();
  fs::path journal = fs::path(root_) / kJournalName;
  { std::ofstream(journal) << "FSXJ1\n"; }
  fs::permissions(journal, fs::perms::none);
  auto contents = ReadJournal(journal);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kFailedPrecondition);
  fs::permissions(journal, fs::perms::owner_all);
}

TEST_F(DiskChaosTest, InjectedEaccesAndErofsSurfaceAsFailedPrecondition) {
  for (int err : {EACCES, EROFS}) {
    ResetTree();
    Status failure = Status::Ok();
    DiskFaultRun run = RunWithDiskFaultAt(
        3, err,
        [&] {
          auto r = RunApply();
          failure = r.status();
          return r.ok();
        },
        "", /*sticky=*/true);
    ASSERT_GT(run.faults_injected, 0u);
    ASSERT_FALSE(run.fn_ok);
    EXPECT_EQ(failure.code(), StatusCode::kFailedPrecondition)
        << "errno " << err << ": " << failure.ToString();
    ExpectOldOrNew("read-only disk");
    ExpectConverges("read-only disk");
  }
}

}  // namespace
}  // namespace fsx::store
