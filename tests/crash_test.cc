// Kill-point crash sweeps for the durable-apply subsystem. Each sweep
// re-runs the operation under test in a forked child that _exit()s at
// the n-th crash point (every fsync/rename/journal-append boundary),
// for every n the operation fires, then asserts the recovery contract:
// after RecoverTree / RecoverInPlaceFile, every file is bit-exactly its
// old or new version, no journal or staged temp survives, and re-running
// the apply converges to the target tree.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "fsync/obs/sync_obs.h"
#include "fsync/store/apply.h"
#include "fsync/store/journal.h"
#include "fsync/testing/crash.h"

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

class TreeCrashTest : public CrashTest {
 protected:
  /// Resets the tree to the old state with a matching manifest — the
  /// world as it was before the interrupted apply.
  void ResetTree() {
    fs::remove_all(root_);
    ASSERT_TRUE(ApplyTree(root_, OldTree(), Manifest{}).ok());
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
};

TEST_F(TreeCrashTest, EveryKillPointRecoversToOldOrNew) {
  ResetTree();
  uint64_t total = fsx::testing::CountCrashPoints([&] { return RunApply(); });
  ASSERT_GT(total, 0u) << "apply fired no crash points";

  for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
    std::string ctx = "kill-point " + std::to_string(n);
    ResetTree();
    CrashRunResult run = RunWithCrashAt(n, [&] { return RunApply(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
        << ctx << ": " << run.error;

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
    auto again = ApplyTree(root_, NewTree(), BuildManifest(OldTree()));
    ASSERT_TRUE(again.ok()) << ctx << ": " << again.status().ToString();
    EXPECT_TRUE(again->conflicts.empty()) << ctx;
    auto final_disk = LoadTree(root_);
    ASSERT_TRUE(final_disk.ok()) << ctx;
    EXPECT_EQ(*final_disk, NewTree()) << ctx << ": re-apply did not converge";
    auto dirty = VerifyTree(root_);
    ASSERT_TRUE(dirty.ok()) << ctx;
    EXPECT_TRUE(dirty->empty()) << ctx;
  }
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

// ---------------------------------------------------------------------------
// In-place apply sweep
// ---------------------------------------------------------------------------

class InPlaceCrashTest : public CrashTest {
 protected:
  void SetUp() override {
    CrashTest::SetUp();
    fs::create_directories(root_);
    path_ = (fs::path(root_) / "target.bin").string();
    ConfigurePlan();
    auto want = InPlaceReconstruct(old_content_, commands_, new_size_);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    new_content_ = want->reconstructed;
    ASSERT_NE(new_content_, old_content_);
  }

  /// The plan under test; subclasses swap in other shapes (shrink).
  virtual void ConfigurePlan() {
    old_content_ = ToBytes("0123456789abcdefABCDEF");
    // Swap the two 8-byte halves (a dependency cycle: one side gets
    // promoted to a literal) and append fresh bytes — every interesting
    // plan shape in one small file.
    commands_ = {CopyCmd(8, 8, 0), CopyCmd(0, 8, 8), LitCmd("+tail+", 16)};
    new_size_ = 22;
  }

  static ReconstructCommand CopyCmd(uint64_t src, uint64_t len,
                                    uint64_t dst) {
    ReconstructCommand c;
    c.kind = ReconstructCommand::kCopy;
    c.source_offset = src;
    c.length = len;
    c.target_offset = dst;
    return c;
  }
  static ReconstructCommand LitCmd(const std::string& s, uint64_t dst) {
    ReconstructCommand c;
    c.kind = ReconstructCommand::kLiteral;
    c.literal = ToBytes(s);
    c.target_offset = dst;
    return c;
  }

  void ResetFile() {
    fs::remove(fs::path(path_));
    fs::remove(fs::path(path_ + ".fsx-journal"));
    std::ofstream out(path_, std::ios::binary);
    out.write(reinterpret_cast<const char*>(old_content_.data()),
              static_cast<std::streamsize>(old_content_.size()));
  }

  bool RunApply() {
    return InPlaceApplyFile(path_, commands_, new_size_).ok();
  }

  /// Kills the apply at every crash point it fires and asserts the
  /// recovery contract: bit-exactly old or new, no surviving journal,
  /// and convergence on re-apply.
  void SweepEveryKillPoint() {
    ResetFile();
    uint64_t total =
        fsx::testing::CountCrashPoints([&] { return RunApply(); });
    ASSERT_GT(total, 0u);

    for (int64_t n = 0; n < static_cast<int64_t>(total); ++n) {
      std::string ctx = "kill-point " + std::to_string(n);
      ResetFile();
      CrashRunResult run = RunWithCrashAt(n, [&] { return RunApply(); });
      ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
          << ctx << ": " << run.error;

      obs::SyncObserver obs;
      auto rec = RecoverInPlaceFile(path_, &obs);
      ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();
      Bytes disk = FileBytes(path_);
      bool is_old = disk == old_content_;
      bool is_new = disk == new_content_;
      EXPECT_TRUE(is_old || is_new) << ctx << ": torn file after recovery";
      EXPECT_FALSE(fs::exists(path_ + ".fsx-journal")) << ctx;
      if (rec->had_journal) {
        EXPECT_EQ(obs.event_count(obs::Event::kRecovery), 1u) << ctx;
      }
      if (rec->rolled_back) {
        EXPECT_TRUE(is_old) << ctx << ": rollback did not restore old bytes";
      }

      // Converge: a rolled-back file re-applies from scratch; a
      // completed one is already the target.
      if (is_old) {
        auto again = InPlaceApplyFile(path_, commands_, new_size_);
        ASSERT_TRUE(again.ok()) << ctx << ": " << again.status().ToString();
      }
      EXPECT_EQ(FileBytes(path_), new_content_) << ctx;
    }
  }

  std::string path_;
  Bytes old_content_;
  Bytes new_content_;
  std::vector<ReconstructCommand> commands_;
  uint64_t new_size_ = 0;
};

TEST_F(InPlaceCrashTest, EveryKillPointRollsBackOrCompletes) {
  SweepEveryKillPoint();
}

// A shrinking plan: the final Truncate(new_size) discards tail bytes no
// block move journaled, so rollback depends on the pre-truncate tail
// undo record. Old "AAAABBBB" -> new "BBBB"; a crash between the shrink
// and COMMIT must recover to exactly "AAAABBBB", never "AAAA\0\0\0\0".
class InPlaceShrinkCrashTest : public InPlaceCrashTest {
 protected:
  void ConfigurePlan() override {
    old_content_ = ToBytes("AAAABBBB");
    commands_ = {CopyCmd(4, 4, 0)};
    new_size_ = 4;
  }
};

TEST_F(InPlaceShrinkCrashTest, EveryKillPointRollsBackOrCompletes) {
  SweepEveryKillPoint();
}

// Shrink whose copy sources live in the doomed tail: rollback must
// restore [new_size, old_size) bit-exactly or the re-apply after a
// rolled-back crash has nothing to copy from.
class InPlaceShrinkFromTailCrashTest : public InPlaceCrashTest {
 protected:
  void ConfigurePlan() override {
    old_content_ = ToBytes("0123456789abcdef");
    commands_ = {CopyCmd(10, 6, 0), LitCmd("zz", 6)};
    new_size_ = 8;
  }
};

TEST_F(InPlaceShrinkFromTailCrashTest, EveryKillPointRollsBackOrCompletes) {
  SweepEveryKillPoint();
}

TEST_F(InPlaceCrashTest, CrashDuringRollbackIsIdempotent) {
  ResetFile();
  uint64_t total = fsx::testing::CountCrashPoints([&] { return RunApply(); });
  ASSERT_GT(total, 4u);
  // Die deep in the apply so the journal holds several undo images.
  const int64_t apply_kill = static_cast<int64_t>(total) - 5;

  auto crash_apply = [&] {
    ResetFile();
    CrashRunResult run =
        RunWithCrashAt(apply_kill, [&] { return RunApply(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed) << run.error;
  };

  crash_apply();
  uint64_t rollback_points = fsx::testing::CountCrashPoints(
      [&] { return RecoverInPlaceFile(path_).ok(); });

  for (int64_t m = 0; m < static_cast<int64_t>(rollback_points); ++m) {
    std::string ctx = "rollback kill-point " + std::to_string(m);
    crash_apply();
    CrashRunResult run =
        RunWithCrashAt(m, [&] { return RecoverInPlaceFile(path_).ok(); });
    ASSERT_EQ(run.outcome, CrashRunResult::Outcome::kCrashed)
        << ctx << ": " << run.error;

    auto rec = RecoverInPlaceFile(path_);
    ASSERT_TRUE(rec.ok()) << ctx << ": " << rec.status().ToString();
    Bytes disk = FileBytes(path_);
    EXPECT_TRUE(disk == old_content_ || disk == new_content_)
        << ctx << ": torn file after re-recovery";
    EXPECT_FALSE(fs::exists(path_ + ".fsx-journal")) << ctx;
  }
}

}  // namespace
}  // namespace fsx::store
