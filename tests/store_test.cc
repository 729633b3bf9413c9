#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "fsync/store/apply.h"
#include "fsync/store/fsstore.h"
#include "fsync/store/vfs_fault.h"
#include "fsync/util/random.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fsx_store_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Writes `files` into the (empty) tree through the journaled apply,
  /// manifest included.
  void Seed(const Collection& files) {
    auto report = store::ApplyTree(root_, files, Manifest{});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  std::string root_;
};

Collection SampleCollection(uint64_t seed) {
  Rng rng(seed);
  Collection c;
  c["a.txt"] = SynthSourceFile(rng, 1000);
  c["dir/b.txt"] = SynthSourceFile(rng, 3000);
  c["dir/deep/c.bin"] = rng.RandomBytes(500);
  c["empty"] = Bytes{};
  return c;
}

TEST_F(StoreTest, StoreLoadRoundTrip) {
  Collection files = SampleCollection(1);
  Seed(files);
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, files);
}

TEST_F(StoreTest, KeepExtraPreserves) {
  Collection files = SampleCollection(3);
  Seed(files);
  Collection fewer;
  fewer["new.txt"] = ToBytes("hello");
  ASSERT_TRUE(store::ApplyTree(root_, fewer, BuildManifest(files),
                               {.delete_extra = false})
                  .ok());
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), files.size() + 1);
}

TEST_F(StoreTest, NewlineInANameIsRefusedBeforeAnyWrite) {
  // The text manifest is one line per file: a name with a newline would
  // commit a manifest that VerifyTree cannot read back.
  Collection files = SampleCollection(3);
  files["b\nc"] = ToBytes("split");
  auto report = store::ApplyTree(root_, files, Manifest{});
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
  EXPECT_FALSE(fs::exists(root_));
}

TEST(SafePathTest, AcceptsOrdinaryRelativePaths) {
  for (const char* good :
       {"a", "a.txt", "dir/b.txt", "dir/deep/c.bin", "with space/f",
        ".hidden", "dir/.dotfile", "a..b", "..a", "trailing.", "a/..b/c",
        "unicode/\xc3\xa9.txt"}) {
    EXPECT_TRUE(IsSafeRelativePath(good)) << good;
  }
}

TEST(SafePathTest, RejectsEscapesAndMalformedPaths) {
  for (const char* evil :
       {"", "/", "/etc/passwd", "../escape", "..", ".",
        "dir/../../escape", "dir/..", "a//b", "a/", "/a", "./a", "a/./b",
        "a\\b", "..\\escape", "dir/../sibling", "a\nb"}) {
    EXPECT_FALSE(IsSafeRelativePath(evil)) << evil;
  }
  // Embedded NUL (can truncate a C path downstream).
  std::string nul = "a";
  nul.push_back('\0');
  nul += "b";
  EXPECT_FALSE(IsSafeRelativePath(nul));
}

TEST_F(StoreTest, LoadMissingDirectoryFails) {
  auto r = LoadTree(root_ + "/does_not_exist");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ManifestTest, SerializeParseRoundTrip) {
  Collection files = SampleCollection(4);
  Manifest m = BuildManifest(files);
  Bytes wire = SerializeManifest(m);
  auto back = ParseManifest(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, m);
}

TEST(ManifestTest, ParseRejectsGarbage) {
  EXPECT_TRUE(ParseManifest(Bytes{}).ok());  // empty manifest is valid
  EXPECT_FALSE(ParseManifest(ToBytes("not a manifest\n")).ok());
  EXPECT_FALSE(ParseManifest(ToBytes("deadbeef 12 x\n")).ok());  // short fp
  EXPECT_FALSE(
      ParseManifest(ToBytes(std::string(32, 'a') + " 12 x")).ok());  // no \n
  EXPECT_FALSE(
      ParseManifest(ToBytes(std::string(32, 'a') + " notanum x\n")).ok());
}

TEST_F(StoreTest, VerifyDetectsTampering) {
  Collection files = SampleCollection(5);
  Seed(files);
  auto clean = VerifyTree(root_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->empty());

  // Tamper with one file, add another, remove a third.
  {
    std::ofstream out(fs::path(root_) / "a.txt", std::ios::app);
    out << "tampered";
  }
  {
    std::ofstream out(fs::path(root_) / "sneaky.txt");
    out << "new";
  }
  fs::remove(fs::path(root_) / "dir/b.txt");

  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok());
  std::vector<std::string> want = {"a.txt", "dir/b.txt", "sneaky.txt"};
  EXPECT_EQ(*dirty, want);
}

TEST_F(StoreTest, ManifestExcludedFromLoad) {
  Collection files = SampleCollection(6);
  Seed(files);
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, files);  // .fsx-manifest not part of the content
}

TEST_F(StoreTest, VerifyWithoutManifestIsNotFound) {
  Collection files = SampleCollection(7);
  Seed(files);
  fs::remove(fs::path(root_) / ".fsx-manifest");
  auto r = VerifyTree(root_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, VerifyFlagsTruncatedFile) {
  Collection files = SampleCollection(8);
  Seed(files);
  fs::resize_file(fs::path(root_) / "dir/b.txt",
                  files["dir/b.txt"].size() / 2);
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  std::vector<std::string> want = {"dir/b.txt"};
  EXPECT_EQ(*dirty, want);
}

TEST_F(StoreTest, VerifyFlagsExtraFile) {
  Collection files = SampleCollection(9);
  Seed(files);
  std::ofstream(fs::path(root_) / "extra.txt") << "not in the manifest";
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok());
  std::vector<std::string> want = {"extra.txt"};
  EXPECT_EQ(*dirty, want);
}

TEST_F(StoreTest, LoadRefusesSymlinks) {
  Collection files = SampleCollection(10);
  Seed(files);
  // A symlink could alias content from outside the tree; LoadTree must
  // refuse it rather than follow it.
  fs::create_symlink(fs::path(root_) / "a.txt",
                     fs::path(root_) / "sneaky_link");
  auto r = LoadTree(root_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StoreTest, UnreadableSubdirectoryFailsTheWalk) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "permission bits do not bind root";
  }
  Collection files = SampleCollection(13);
  Seed(files);
  const fs::path locked = fs::path(root_) / "locked";
  fs::create_directories(locked);
  std::ofstream(locked / "extra.txt") << "an extra file mirroring must see";
  fs::permissions(locked, fs::perms::none);

  // A walk that cannot read a directory must not end early in silence:
  // the mirror would skip the extra file, the load would drop content.
  Status stored =
      store::ApplyTree(root_, files, BuildManifest(files)).status();
  auto loaded = LoadTree(root_);
  fs::permissions(locked, fs::perms::owner_all);
  EXPECT_EQ(stored.code(), StatusCode::kInternal) << stored.ToString();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(fs::exists(locked / "extra.txt"));
}

TEST_F(StoreTest, MirrorDeleteFailureIsReturned) {
  // A mirror delete the disk refuses must fail the apply, not report a
  // mirror that still holds the extra. A fault rule, unlike a chmod,
  // binds root too.
  Collection files = SampleCollection(14);
  Seed(files);
  Collection fewer = files;
  fewer.erase("dir/b.txt");
  store::FaultVfs vfs;
  store::DiskFaultRule rule;
  rule.path_pattern = "dir/b.txt";
  rule.op_mask = store::VfsOpBit(store::VfsOp::kUnlink);
  rule.fail_at_op = 0;
  rule.fail_errno = EACCES;
  vfs.AddRule(rule);
  Status stored;
  {
    store::ScopedVfs scoped(&vfs);
    stored = store::ApplyTree(root_, fewer, BuildManifest(files)).status();
  }
  EXPECT_EQ(vfs.faults_injected(), 1u);
  EXPECT_EQ(stored.code(), StatusCode::kFailedPrecondition)
      << stored.ToString();
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, files);  // the extra is still there, untouched
}

TEST_F(StoreTest, InternalArtifactsExcludedFromLoadAndMirroring) {
  Collection files = SampleCollection(11);
  Seed(files);
  // Simulate debris from an interrupted apply: a staged temp (for a
  // file not in this collection) and an in-place journal next to real
  // content.
  std::ofstream(fs::path(root_) / "ghost.txt.fsx-tmp") << "staged";
  std::ofstream(fs::path(root_) / "dir/b.txt.fsx-journal") << "journal";

  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, files);  // artifacts are not content

  // A mirror-mode apply must not treat the artifacts as "extra files"
  // to delete — recovery owns them, not the mirroring pass: it sweeps
  // the stranded temp and leaves the foreign journal-suffixed file.
  auto report = store::ApplyTree(root_, files, BuildManifest(files));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files_deleted, 0u);
  EXPECT_TRUE(report->recovered);
  EXPECT_FALSE(fs::exists(fs::path(root_) / "ghost.txt.fsx-tmp"));
  EXPECT_TRUE(fs::exists(fs::path(root_) / "dir/b.txt.fsx-journal"));
}

TEST_F(StoreTest, ApplyLeavesNoTempsBehind) {
  Collection files = SampleCollection(12);
  Seed(files);
  for (auto it = fs::recursive_directory_iterator(root_);
       it != fs::recursive_directory_iterator(); ++it) {
    EXPECT_FALSE(it->path().filename().string().ends_with(".fsx-tmp"))
        << it->path();
  }
}

TEST_F(StoreTest, CheckpointRemovalCleansStrandedTemp) {
  fs::create_directories(root_);
  std::string path = root_ + "/session.ckpt";
  std::ofstream(path) << "checkpoint";
  std::ofstream(path + ".tmp") << "stranded temp from a crashed save";

  // Loading ignores (and clears) the stranded temp.
  auto loaded = LoadCheckpointFile(path);  // "checkpoint" isn't parseable,
  EXPECT_FALSE(loaded.ok());               // but the temp is gone either way
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  std::ofstream(path + ".tmp") << "stranded again";
  EXPECT_TRUE(RemoveCheckpointFile(path).ok());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // Removing what is already gone stays OK.
  EXPECT_TRUE(RemoveCheckpointFile(path).ok());
}

}  // namespace
}  // namespace fsx
