#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>

#include <unistd.h>

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
  ASSERT_TRUE(StoreTree(root_, files, false).ok());
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, files);
}

TEST_F(StoreTest, DeleteExtraMirrors) {
  Collection files = SampleCollection(2);
  ASSERT_TRUE(StoreTree(root_, files, false).ok());
  Collection fewer = files;
  fewer.erase("dir/b.txt");
  ASSERT_TRUE(StoreTree(root_, fewer, /*delete_extra=*/true).ok());
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, fewer);
}

TEST_F(StoreTest, KeepExtraPreserves) {
  Collection files = SampleCollection(3);
  ASSERT_TRUE(StoreTree(root_, files, false).ok());
  Collection fewer;
  fewer["new.txt"] = ToBytes("hello");
  ASSERT_TRUE(StoreTree(root_, fewer, /*delete_extra=*/false).ok());
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), files.size() + 1);
}

TEST_F(StoreTest, RejectsUnsafePaths) {
  Collection evil;
  evil["../escape"] = ToBytes("nope");
  EXPECT_FALSE(StoreTree(root_, evil, false).ok());
  Collection evil2;
  evil2["/absolute"] = ToBytes("nope");
  EXPECT_FALSE(StoreTree(root_, evil2, false).ok());
}

TEST_F(StoreTest, NewlineInANameIsRefusedBeforeAnyWrite) {
  // The text manifest is one line per file: a name with a newline would
  // commit a manifest that VerifyTree cannot read back.
  Collection files = SampleCollection(3);
  files["b\nc"] = ToBytes("split");
  Status s = StoreTree(root_, files, false, /*write_manifest=*/true);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
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
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
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
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, files);  // .fsx-manifest not part of the content
}

TEST_F(StoreTest, VerifyWithoutManifestIsNotFound) {
  Collection files = SampleCollection(7);
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/false).ok());
  auto r = VerifyTree(root_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, VerifyFlagsTruncatedFile) {
  Collection files = SampleCollection(8);
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
  fs::resize_file(fs::path(root_) / "dir/b.txt",
                  files["dir/b.txt"].size() / 2);
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  std::vector<std::string> want = {"dir/b.txt"};
  EXPECT_EQ(*dirty, want);
}

TEST_F(StoreTest, VerifyFlagsExtraFile) {
  Collection files = SampleCollection(9);
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
  std::ofstream(fs::path(root_) / "extra.txt") << "not in the manifest";
  auto dirty = VerifyTree(root_);
  ASSERT_TRUE(dirty.ok());
  std::vector<std::string> want = {"extra.txt"};
  EXPECT_EQ(*dirty, want);
}

TEST_F(StoreTest, LoadRefusesSymlinks) {
  Collection files = SampleCollection(10);
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
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
  ASSERT_TRUE(StoreTree(root_, files, false).ok());
  const fs::path locked = fs::path(root_) / "locked";
  fs::create_directories(locked);
  std::ofstream(locked / "extra.txt") << "an extra file mirroring must see";
  fs::permissions(locked, fs::perms::none);

  // A walk that cannot read a directory must not end early in silence:
  // the mirror would skip the extra file, the load would drop content.
  Status stored = StoreTree(root_, files, /*delete_extra=*/true);
  auto loaded = LoadTree(root_);
  fs::permissions(locked, fs::perms::owner_all);
  EXPECT_EQ(stored.code(), StatusCode::kInternal) << stored.ToString();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(fs::exists(locked / "extra.txt"));
}

TEST_F(StoreTest, MirrorDeleteFailureIsReturned) {
  // A mirror delete the disk refuses must fail the store, not report a
  // mirror that still holds the extra. A fault rule, unlike a chmod,
  // binds root too.
  Collection files = SampleCollection(14);
  ASSERT_TRUE(StoreTree(root_, files, false).ok());
  Collection fewer = files;
  fewer.erase("a.txt");
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
    stored = StoreTree(root_, fewer, /*delete_extra=*/true);
  }
  EXPECT_EQ(vfs.faults_injected(), 1u);
  EXPECT_EQ(stored.code(), StatusCode::kFailedPrecondition)
      << stored.ToString();
  EXPECT_TRUE(fs::exists(fs::path(root_) / "dir/b.txt"));
  // The other extra is still removed: every delete is tried.
  EXPECT_FALSE(fs::exists(fs::path(root_) / "a.txt"));
}

TEST_F(StoreTest, InternalArtifactsExcludedFromLoadAndMirroring) {
  Collection files = SampleCollection(11);
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
  // Simulate debris from an interrupted apply: a staged temp (for a
  // file not in this collection) and an in-place journal next to real
  // content.
  std::ofstream(fs::path(root_) / "ghost.txt.fsx-tmp") << "staged";
  std::ofstream(fs::path(root_) / "dir/b.txt.fsx-journal") << "journal";

  auto back = LoadTree(root_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, files);  // artifacts are not content

  // Mirror-mode rewrite must not treat the artifacts as "extra files"
  // to delete — recovery owns them, not the mirroring pass.
  ASSERT_TRUE(StoreTree(root_, files, /*delete_extra=*/true, true).ok());
  EXPECT_TRUE(fs::exists(fs::path(root_) / "ghost.txt.fsx-tmp"));
  EXPECT_TRUE(fs::exists(fs::path(root_) / "dir/b.txt.fsx-journal"));
}

TEST_F(StoreTest, StoreTreeLeavesNoTempsBehind) {
  Collection files = SampleCollection(12);
  ASSERT_TRUE(StoreTree(root_, files, true, /*write_manifest=*/true).ok());
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
