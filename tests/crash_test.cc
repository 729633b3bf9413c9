// Kill-point crash sweeps for the durable-apply subsystem. Each sweep
// re-runs the operation under test in a forked child that _exit()s at
// the n-th crash point (every fsync/rename/journal-append boundary),
// for every n the operation fires, then asserts the recovery contract:
// after RecoverTree, every file is bit-exactly its old or new version,
// no journal or staged temp survives, and re-running the apply
// converges to the target tree. The tree sweep runs once more
// from a warm stat index (`.fsx-index`): its rewrite after COMMIT is the
// apply's last kill point, and whatever index a kill leaves must not
// change what the next apply decides.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fsync/obs/sync_obs.h"
#include "fsync/store/apply.h"
#include "fsync/store/crashpoint.h"
#include "fsync/store/journal.h"
#include "fsync/store/tree_index.h"
#include "fsync/testing/crash.h"
#include "fsync/testing/racy_clock.h"

namespace fsx::store {
namespace {

namespace fs = std::filesystem;
using fsx::testing::CrashRunResult;
using fsx::testing::RunWithCrashAt;

Bytes FileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes{std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>()};
}

class CrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fsx_crash_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

// ---------------------------------------------------------------------------
// Tree apply sweep
// ---------------------------------------------------------------------------

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

std::vector<std::pair<std::string, FileApplyOutcome::Action>> Outcomes(
    const ApplyReport& report) {
  std::vector<std::pair<std::string, FileApplyOutcome::Action>> out;
  for (const FileApplyOutcome& f : report.files) {
    out.emplace_back(f.path, f.action);
  }
  return out;
}

class TreeCrashTest : public CrashTest {
 protected:
  /// Resets the tree to the old state with a matching manifest — the
  /// world as it was before the interrupted apply. With `warm_index_`,
  /// a no-op apply past the clock tick then records every file.
  void ResetTree() {
    fs::remove_all(root_);
    ASSERT_TRUE(ApplyTree(root_, OldTree(), Manifest{}).ok());
    if (warm_index_) {
      fsx::testing::WaitPastCoarseTick();
      ASSERT_TRUE(ApplyTree(root_, OldTree(), BuildManifest(OldTree())).ok());
      ASSERT_EQ(TreeIndex::Load(root_).size(), OldTree().size());
    }
  }

  bool RunApply() {
    auto r = ApplyTree(root_, NewTree(), BuildManifest(OldTree()));
    return r.ok();
  }

  /// The per-file crash contract: every path is bit-exactly its old or
  /// new version (or legitimately absent), with no torn state.
  void ExpectOldOrNew(const std::string& context) {
    Collection old_files = OldTree();
    Collection new_files = NewTree();
    auto disk = LoadTree(root_);
    ASSERT_TRUE(disk.ok()) << context << ": " << disk.status().ToString();
    for (const auto& [name, data] : *disk) {
      bool is_old =
          old_files.contains(name) && old_files.at(name) == data;
      bool is_new =
          new_files.contains(name) && new_files.at(name) == data;
      EXPECT_TRUE(is_old || is_new)
          << context << ": torn or foreign content in " << name;
    }
    for (const auto& [name, data] : old_files) {
      if (!new_files.contains(name)) {
        continue;  // deletion in flight: present-old or absent are both fine
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

  /// The labels of the crash points a fault-free RunApply fires, in
  /// order (run in-process, with a recording hook).
  std::vector<std::string> KillPointLabels() {
    ResetTree();
    std::vector<std::string> labels;
    SetCrashHook([&](const char* label, uint64_t) { labels.push_back(label); });
    const bool ok = RunApply();
    SetCrashHook({});
    EXPECT_TRUE(ok);
    return labels;
  }

  /// Re-runs the apply on the surviving tree and on a copy without its
  /// stat index: whatever index survived must decide exactly as none.
  void ExpectReapplyIgnoresTheIndex(const std::string& context) {
    const std::string bare = root_ + "_no_index";
    fs::remove_all(bare);
    fs::copy(root_, bare, fs::copy_options::recursive);
    fs::remove(fs::path(bare) / kIndexName);
    auto again = ApplyTree(root_, NewTree(), BuildManifest(OldTree()));
    auto bare_again = ApplyTree(bare, NewTree(), BuildManifest(OldTree()));
    ASSERT_TRUE(again.ok()) << context << ": " << again.status().ToString();
    ASSERT_TRUE(bare_again.ok()) << context;
    EXPECT_EQ(Outcomes(*again), Outcomes(*bare_again)) << context;
    EXPECT_TRUE(again->conflicts.empty()) << context;
    EXPECT_EQ(FileBytes(fs::path(root_) / ".fsx-manifest"),
              FileBytes(fs::path(bare) / ".fsx-manifest"))
        << context;
    fs::remove_all(bare);
  }

  /// The kill-point sweep of the tree apply.
  void SweepKillPoints() {
    const std::vector<std::string> labels = KillPointLabels();
    ResetTree();
    uint64_t total =
        fsx::testing::CountCrashPoints([&] { return RunApply(); });
    ASSERT_GT(total, 0u) << "apply fired no crash points";
    ASSERT_EQ(total, labels.size());
    ASSERT_EQ(labels.back(), "index:staged")
        << "the index rewrite is not the apply's last step";

    for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
      std::string ctx = "kill-point " + std::to_string(n) + " (" +
                        labels[n] + ")";
      ResetTree();
      CrashRunResult run = RunWithCrashAt(n, [&] { return RunApply(); });
      ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
          << ctx << ": " << run.error;
      if (labels[n].starts_with("index:")) {
        // Killed after COMMIT: the tree and its manifest are new already.
        auto disk = LoadTree(root_);
        ASSERT_TRUE(disk.ok()) << ctx;
        EXPECT_EQ(*disk, NewTree()) << ctx;
        auto dirty = VerifyTree(root_);
        ASSERT_TRUE(dirty.ok()) << ctx;
        EXPECT_TRUE(dirty->empty()) << ctx;
      }
      RecoverAndConverge(ctx);
    }
  }

  void RecoverAndConverge(const std::string& ctx) {
    // Even before recovery, content files are never torn: staging and
    // rename keep each one bit-exactly old or new.
    ExpectOldOrNew(ctx + " pre-recovery");

    obs::SyncObserver obs;
    auto rec = RecoverTree(root_, &obs);
    ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();
    ExpectOldOrNew(ctx + " post-recovery");
    ExpectNoApplyDebris(ctx);
    if (rec->had_journal) {
      EXPECT_EQ(obs.event_count(obs::Event::kRecovery), 1u) << ctx;
      // Recovery refreshed the manifest to what survived.
      auto dirty = VerifyTree(root_);
      ASSERT_TRUE(dirty.ok()) << ctx << ": " << dirty.status().ToString();
      EXPECT_TRUE(dirty->empty()) << ctx;
    }

    // Re-running the same apply must converge on the target tree.
    ExpectReapplyIgnoresTheIndex(ctx);
    auto final_disk = LoadTree(root_);
    ASSERT_TRUE(final_disk.ok()) << ctx;
    EXPECT_EQ(*final_disk, NewTree()) << ctx << ": re-apply did not converge";
    auto dirty = VerifyTree(root_);
    ASSERT_TRUE(dirty.ok()) << ctx;
    EXPECT_TRUE(dirty->empty()) << ctx;
  }

  bool warm_index_ = false;
};

TEST_F(TreeCrashTest, EveryKillPointRecoversToOldOrNew) { SweepKillPoints(); }

TEST_F(TreeCrashTest, EveryKillPointRecoversToOldOrNewWithWarmIndex) {
  warm_index_ = true;
  SweepKillPoints();
}

TEST_F(TreeCrashTest, CrashDuringRecoveryStillRecovers) {
  ResetTree();
  uint64_t total = fsx::testing::CountCrashPoints([&] { return RunApply(); });
  ASSERT_GT(total, 0u);
  // Die mid-apply (roughly half way — after some renames, journal
  // populated), then sweep every kill point of the *recovery*.
  const int64_t apply_kill = static_cast<int64_t>(total) / 2;

  auto crash_apply = [&] {
    ResetTree();
    CrashRunResult run =
        RunWithCrashAt(apply_kill, [&] { return RunApply(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed) << run.error;
  };

  crash_apply();
  uint64_t recovery_points = fsx::testing::CountCrashPoints(
      [&] { return RecoverTree(root_).ok(); });

  for (int64_t m = 0; m < static_cast<int64_t>(recovery_points); ++m) {
    std::string ctx = "recovery kill-point " + std::to_string(m);
    crash_apply();
    CrashRunResult run =
        RunWithCrashAt(m, [&] { return RecoverTree(root_).ok(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
        << ctx << ": " << run.error;

    // Recovery is idempotent: a second, uninterrupted pass must finish
    // the job no matter where the first one died.
    auto rec = RecoverTree(root_);
    ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();
    ExpectOldOrNew(ctx);
    ExpectNoApplyDebris(ctx);

    auto again = ApplyTree(root_, NewTree(), BuildManifest(OldTree()));
    ASSERT_TRUE(again.ok()) << ctx;
    auto final_disk = LoadTree(root_);
    ASSERT_TRUE(final_disk.ok()) << ctx;
    EXPECT_EQ(*final_disk, NewTree()) << ctx;
  }
}

}  // namespace
}  // namespace fsx::store
