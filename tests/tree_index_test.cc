// The apply's stat index (.fsx-index, store/tree_index.h) and the one
// stat walk under it (store/tree_walk.h): the image format and its
// defects, the racy-clean rule, the reads an apply saves, and the
// proof that no defect of the index changes what an apply decides.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fsync/hash/crc32c.h"
#include "fsync/store/apply.h"
#include "fsync/store/journal.h"
#include "fsync/store/merge_cursor.h"
#include "fsync/store/tree_index.h"
#include "fsync/store/tree_walk.h"
#include "fsync/testing/racy_clock.h"

namespace fsx::store {
namespace {

namespace fs = std::filesystem;
using Action = FileApplyOutcome::Action;
using fsx::testing::WaitPastCoarseTick;

Bytes FileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return Bytes{std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>()};
}

void WriteBytes(const fs::path& p, const Bytes& data) {
  std::ofstream(p, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
}

StatKey KeyOf(const fs::path& p) {
  struct stat st;
  EXPECT_EQ(::lstat(p.c_str(), &st), 0) << p;
  return StatKeyOf(st);
}

Fingerprint FpOf(const std::string& s) { return FileFingerprint(ToBytes(s)); }

// ---------------------------------------------------------------------------
// The racy-clean rule
// ---------------------------------------------------------------------------

TEST(TreeIndexRule, NeverRecordsATimeAtOrPastTheClockReading) {
  const int64_t clock = 1'700'000'000'000'000'000;
  StatKey key;
  key.mtime_ns = clock - 1;
  key.ctime_ns = clock - 1;
  EXPECT_TRUE(MayRecord(key, clock));
  for (int64_t delta : {0, 1, 1'000'000'000}) {
    SCOPED_TRACE(delta);
    StatKey m = key;
    m.mtime_ns = clock + delta;  // modified in or after the clock's tick
    EXPECT_FALSE(MayRecord(m, clock));
    StatKey c = key;
    c.ctime_ns = clock + delta;  // e.g. mtime restored, ctime not
    EXPECT_FALSE(MayRecord(c, clock));
  }
}

TEST(TreeIndexRule, ComparesInTheUnitTheFileSystemStamps) {
  // A file system with whole-second (or FAT's two-second) times stamps
  // an edit made just after the clock reading with the reading rounded
  // down, so a time older than the reading but in its unit could be
  // stamped again by a later edit: it must not be recorded.
  auto key = [](int64_t mtime_ns, int64_t ctime_ns) {
    StatKey k;
    k.mtime_ns = mtime_ns;
    k.ctime_ns = ctime_ns;
    return k;
  };
  const int64_t s = 1'000'000'000;
  EXPECT_FALSE(MayRecord(key(1000 * s, 1000 * s), 1000 * s + s / 2));
  EXPECT_TRUE(MayRecord(key(999 * s, 999 * s), 1000 * s + s / 2));
  EXPECT_FALSE(MayRecord(key(1000 * s, 1000 * s), 1001 * s + s / 2));  // 2 s
  EXPECT_TRUE(MayRecord(key(998 * s, 998 * s), 1001 * s + s / 2));
  // Microseconds: the reading's own microsecond is still "now".
  EXPECT_FALSE(MayRecord(key(5 * s + 1000, 5 * s + 1000), 5 * s + 1500));
  EXPECT_TRUE(MayRecord(key(5 * s + 999, 5 * s + 999), 5 * s + 1500));
  // Nanosecond times compare with the reading as is.
  EXPECT_TRUE(MayRecord(key(5 * s + 1499, 5 * s + 1001), 5 * s + 1500));
  // exFAT's ten milliseconds: the reading's own 10 ms is still "now".
  const int64_t cs = 10'000'000;
  EXPECT_FALSE(MayRecord(key(5 * s + 3 * cs, 5 * s + 3 * cs),
                         5 * s + 3 * cs + cs / 2));
  EXPECT_TRUE(MayRecord(key(5 * s + 2 * cs, 5 * s + 2 * cs),
                        5 * s + 3 * cs + cs / 2));
  // vfat stamps mtime in 2 s and ctime in 10 ms: each time is judged in
  // its own unit, so neither can hide behind the other's finer one.
  EXPECT_FALSE(MayRecord(key(1000 * s, 999 * s + 99 * cs), 1001 * s + s / 2));
  EXPECT_FALSE(MayRecord(key(998 * s, 1001 * s + 23 * cs),
                         1001 * s + 23 * cs + cs / 2));
  EXPECT_TRUE(MayRecord(key(998 * s, 1001 * s + 22 * cs),
                        1001 * s + 23 * cs + cs / 2));
}

// ---------------------------------------------------------------------------
// The image
// ---------------------------------------------------------------------------

StatKey Key(uint64_t ino) {
  StatKey k;
  k.dev = 7;
  k.ino = ino;
  k.size = 100 + ino;
  k.mtime_ns = 1000 + static_cast<int64_t>(ino);
  k.ctime_ns = 2000 + static_cast<int64_t>(ino);
  k.mode = S_IFREG | 0644;
  return k;
}

const std::vector<std::string>& Names() {
  static const std::vector<std::string> names = {"a.txt", "dir/b.txt",
                                                 "dir/deep/c.bin", "z"};
  return names;
}

Bytes SortedImage() {
  TreeIndexWriter w;
  for (size_t i = 0; i < Names().size(); ++i) {
    w.Add(Names()[i], Key(i + 1), FpOf(Names()[i]));
  }
  return w.Finish();
}

// Replaces the trailing CRC32C so only the defect under test is left.
void Reseal(Bytes& image) {
  const uint32_t crc = Crc32c(ByteSpan(image.data(), image.size() - 4));
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

TEST(TreeIndexImage, RoundTripsEveryRecord) {
  TreeIndex index = TreeIndex::Parse(SortedImage());
  ASSERT_EQ(index.size(), Names().size());
  for (size_t i = 0; i < Names().size(); ++i) {
    const IndexRecord r = index[i];
    EXPECT_EQ(r.path, Names()[i]);
    EXPECT_EQ(r.key, Key(i + 1)) << Names()[i];
    EXPECT_EQ(r.fingerprint, FpOf(Names()[i])) << Names()[i];
  }
}

TEST(MergeCursorTest, FindsInAndOutOfOrder) {
  const std::vector<std::string> names = {"a.txt", "dir/b.txt",
                                          "dir/deep/c.bin", "z"};
  MergeCursor cursor(names.begin(), names.end(),
                     [](const std::string& n) -> std::string_view {
                       return n;
                     });
  // Ascending lookups, then one behind the cursor, then misses.
  for (auto it = names.begin(); it != names.end(); ++it) {
    EXPECT_EQ(cursor.Find(*it), it) << *it;
  }
  EXPECT_EQ(cursor.Find("dir/b.txt"), names.begin() + 1);
  EXPECT_EQ(cursor.Find("dir/a.txt"), names.end());  // no such name
  EXPECT_EQ(cursor.Find("dir/deep/c.bin"), names.begin() + 2);
  EXPECT_EQ(cursor.Find("zz"), names.end());
  EXPECT_EQ(cursor.Find("a.txt"), names.begin());
}

TEST(TreeIndexImage, EveryDefectParsesAsAnEmptyIndex) {
  const Bytes good = SortedImage();
  ASSERT_EQ(TreeIndex::Parse(good).size(), Names().size());
  EXPECT_EQ(TreeIndex::Parse(Bytes{}).size(), 0u);

  for (size_t cut = 0; cut < good.size(); ++cut) {  // truncated
    EXPECT_EQ(TreeIndex::Parse(Bytes(good.begin(), good.begin() + cut)).size(),
              0u)
        << "cut at " << cut;
  }
  for (size_t byte = 0; byte < good.size(); ++byte) {  // one bit flipped
    Bytes flipped = good;
    flipped[byte] ^= 0x10;
    EXPECT_EQ(TreeIndex::Parse(flipped).size(), 0u) << "byte " << byte;
  }
  Bytes magic = good;  // wrong magic under a valid CRC
  magic[3] = 'X';
  Reseal(magic);
  EXPECT_EQ(TreeIndex::Parse(magic).size(), 0u);

  TreeIndexWriter unsorted;  // a valid CRC over records out of order
  for (size_t i = Names().size(); i-- > 0;) {
    unsorted.Add(Names()[i], Key(i + 1), FpOf(Names()[i]));
  }
  EXPECT_EQ(TreeIndex::Parse(unsorted.Finish()).size(), 0u);
  TreeIndexWriter duplicated;
  duplicated.Add("a.txt", Key(1), FpOf("a"));
  duplicated.Add("a.txt", Key(2), FpOf("b"));
  EXPECT_EQ(TreeIndex::Parse(duplicated.Finish()).size(), 0u);

  Bytes trailing = good;  // bytes past the last record
  trailing.insert(trailing.end() - 4, uint8_t{0});
  Reseal(trailing);
  EXPECT_EQ(TreeIndex::Parse(trailing).size(), 0u);
}

TEST(TreeIndexImage, IndexNameIsABookkeepingArtifact) {
  EXPECT_TRUE(IsInternalArtifact(".fsx-index"));
  EXPECT_TRUE(IsInternalArtifact("dir/.fsx-index"));
  EXPECT_TRUE(IsInternalArtifact(".fsx-index.fsx-tmp"));
  EXPECT_FALSE(IsInternalArtifact("fsx-index"));
  EXPECT_FALSE(IsInternalArtifact(".fsx-index/file"));
}

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

class TreeWalkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("fsx_walk_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }
  fs::path root_;
};

TEST_F(TreeWalkTest, FilesArriveInPathOrderWithTheirOwnStat) {
  // Names whose std::string order differs from a per-directory name
  // sort: '.' < '/' < '0', so "a.b" < "a/x" < "a0".
  for (const char* f : {"a0", "a.b", "a/x", "a/y/z", "ab", "b"}) {
    fs::create_directories((root_ / f).parent_path());
    std::ofstream(root_ / f) << f;
  }
  fs::create_directories(root_ / "empty");
  fs::create_directory_symlink(root_ / "a", root_ / "dirlink");
  fs::create_symlink("ab", root_ / "filelink");
  ASSERT_EQ(::mkfifo((root_ / "fifo").c_str(), 0600), 0);

  std::vector<std::string> files, dirs, links, others;
  std::vector<std::string> all;
  ASSERT_TRUE(WalkTree(root_, [&](const std::string& rel,
                                  const struct stat& st) {
                all.push_back(rel);
                if (S_ISREG(st.st_mode)) {
                  files.push_back(rel);
                  EXPECT_EQ(static_cast<size_t>(st.st_size), rel.size());
                } else if (S_ISDIR(st.st_mode)) {
                  dirs.push_back(rel);
                } else if (S_ISLNK(st.st_mode)) {
                  links.push_back(rel);
                } else {
                  others.push_back(rel);
                }
                return Status::Ok();
              }).ok());
  EXPECT_EQ(files, (std::vector<std::string>{"a.b", "a/x", "a/y/z", "a0",
                                             "ab", "b"}));
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_EQ(dirs, (std::vector<std::string>{"a", "a/y", "empty"}));
  // Symlinks are reported, never followed: nothing under "dirlink/".
  EXPECT_EQ(links, (std::vector<std::string>{"dirlink", "filelink"}));
  EXPECT_EQ(others, std::vector<std::string>{"fifo"});
  // A directory comes just before its contents.
  auto at = [&](const std::string& rel) {
    return std::find(all.begin(), all.end(), rel) - all.begin();
  };
  EXPECT_EQ(at("a") + 1, at("a/x"));
  EXPECT_EQ(at("a/y") + 1, at("a/y/z"));
}

TEST_F(TreeWalkTest, MissingRootIsAWalkFailure) {
  Status s = WalkTree(root_ / "absent",
                      [](const std::string&, const struct stat&) {
                        return Status::Ok();
                      });
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("walk failed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The index in the apply
// ---------------------------------------------------------------------------

Collection SampleFiles() {
  Collection c;
  c["a.txt"] = ToBytes("alpha");
  c["dir/b.txt"] = ToBytes("bravo bravo");
  c["dir/deep/c.bin"] = ToBytes("charlie");
  c["e.txt"] = ToBytes("echo");
  return c;
}

std::vector<std::pair<std::string, Action>> Outcomes(
    const ApplyReport& report) {
  std::vector<std::pair<std::string, Action>> out;
  for (const FileApplyOutcome& f : report.files) {
    out.emplace_back(f.path, f.action);
  }
  return out;
}

class IndexedApplyTest : public TreeWalkTest {
 protected:
  std::string root() const { return root_.string(); }

  Manifest CommittedManifest() const {
    auto parsed = ParseManifest(FileBytes(root_ / ".fsx-manifest"));
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return parsed.ok() ? *parsed : Manifest{};
  }

  /// Seeds `files` and runs one no-op apply past the clock tick, which
  /// reads every file and records it: the index is then warm.
  void SeedWarm(const Collection& files) {
    fs::remove_all(root_);
    ASSERT_TRUE(ApplyTree(root(), files, Manifest{}).ok());
    WaitPastCoarseTick();
    auto warm = ApplyTree(root(), files, BuildManifest(files));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->files_read, files.size());
    ASSERT_EQ(TreeIndex::Load(root_).size(), files.size());
  }
};

TEST_F(IndexedApplyTest, NoOpApplyReadsNothingOnceTheIndexIsWarm) {
  const Collection files = SampleFiles();
  ASSERT_TRUE(ApplyTree(root(), files, Manifest{}).ok());
  WaitPastCoarseTick();
  // The commit recorded nothing, so the first no-op apply reads every
  // file (and records them).
  auto first = ApplyTree(root(), files, BuildManifest(files));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->files_read, files.size());
  EXPECT_EQ(first->files_unchanged, files.size());

  auto second = ApplyTree(root(), files, BuildManifest(files));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->files_read, 0u);
  EXPECT_EQ(second->files_unchanged, files.size());
  EXPECT_EQ(Outcomes(*second), Outcomes(*first));
  EXPECT_EQ(CommittedManifest(), BuildManifest(files));

  // A commit changes two files and deletes one: the apply after it
  // reads only the two committed paths (never recorded at commit), and
  // the one after that reads nothing again.
  Collection next = files;
  next["a.txt"] = ToBytes("alpha v2");
  next["dir/deep/c.bin"] = ToBytes("charlie v2");
  next.erase("e.txt");
  auto commit = ApplyTree(root(), next, BuildManifest(files));
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->files_committed, 2u);
  EXPECT_EQ(commit->files_deleted, 1u);
  // Indexed: the two replaced files and the deleted one need no read.
  EXPECT_EQ(commit->files_read, 0u);
  WaitPastCoarseTick();
  auto after = ApplyTree(root(), next, BuildManifest(next));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->files_read, 2u);
  EXPECT_EQ(after->files_unchanged, next.size());
  auto settled = ApplyTree(root(), next, BuildManifest(next));
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled->files_read, 0u);
  EXPECT_EQ(CommittedManifest(), BuildManifest(next));
  auto loaded = LoadTree(root());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, next);  // the index is not content
}

TEST_F(IndexedApplyTest, FileStampedAtOrPastTheClockIsNeverRecorded) {
  // A file time the apply's clock reading has not passed yet (here set
  // an hour ahead) keeps the file out of the index: every apply reads it.
  const Collection files = SampleFiles();
  SeedWarm(files);
  const fs::path c = root_ / "dir/deep/c.bin";
  struct timespec times[2];
  ::clock_gettime(CLOCK_REALTIME, &times[0]);
  times[0].tv_sec += 3600;
  times[1] = times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, c.c_str(), times, 0), 0);
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    auto report = ApplyTree(root(), files, BuildManifest(files));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->files_read, 1u);
    EXPECT_EQ(report->files_unchanged, files.size());
  }
  EXPECT_EQ(TreeIndex::Load(root_).size(), files.size() - 1);
}

TEST_F(IndexedApplyTest, RestoredMtimeEditIsCaughtThroughCtime) {
  // Same size, same inode, mtime put back with utimensat: only ctime
  // tells the edit apart. Whether or not the sync changes the file, the
  // user's bytes win as a conflict.
  for (bool sync_changes_it : {false, true}) {
    SCOPED_TRACE(sync_changes_it ? "synced file" : "untouched file");
    const Collection files = SampleFiles();
    SeedWarm(files);
    const fs::path a = root_ / "a.txt";
    struct stat before;
    ASSERT_EQ(::lstat(a.c_str(), &before), 0);
    WaitPastCoarseTick();
    {
      std::fstream f(a, std::ios::in | std::ios::out | std::ios::binary);
      f.write("ALPHA", 5);  // in place: same inode, same size
    }
    const struct timespec times[2] = {before.st_atim, before.st_mtim};
    ASSERT_EQ(::utimensat(AT_FDCWD, a.c_str(), times, 0), 0);
    const StatKey edited = KeyOf(a);
    ASSERT_EQ(edited.mtime_ns, StatKeyOf(before).mtime_ns);
    ASSERT_EQ(edited.size, StatKeyOf(before).size);
    ASSERT_EQ(edited.ino, StatKeyOf(before).ino);
    ASSERT_NE(edited.ctime_ns, StatKeyOf(before).ctime_ns);

    Collection next = files;
    next["dir/b.txt"] = ToBytes("bravo v2");
    if (sync_changes_it) {
      next["a.txt"] = ToBytes("alpha from the source");
    }
    auto report = ApplyTree(root(), next, BuildManifest(files));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->conflicts, std::vector<std::string>{"a.txt"});
    EXPECT_EQ(FileBytes(a), ToBytes("ALPHA"));
    EXPECT_EQ(report->files_read, 1u);  // only the edited file
    Manifest want = BuildManifest(next);
    want["a.txt"] = ManifestEntry{FpOf("ALPHA"), 5};
    EXPECT_EQ(CommittedManifest(), want);
  }
}

TEST_F(IndexedApplyTest, DefectiveIndexDecidesExactlyLikeNoIndex) {
  // Each variant starts from a warm tree, then damages the index and
  // edits dir/b.txt behind the syncer's back. A defective index that
  // were trusted would hide the edit (the lying records name the
  // synced bytes) or invent conflicts (flipped fingerprints).
  const Collection files = SampleFiles();
  Collection next = files;
  next["a.txt"] = ToBytes("alpha v2");
  next.erase("e.txt");

  struct Result {
    std::vector<std::pair<std::string, Action>> outcomes;
    std::vector<std::string> conflicts;
    Manifest manifest;
    Collection tree;
  };
  auto run = [&](const std::string& variant) -> Result {
    SCOPED_TRACE(variant);
    SeedWarm(files);
    const fs::path index_path = root_ / kIndexName;
    const Bytes good = FileBytes(index_path);
    const fs::path b = root_ / "dir/b.txt";
    WriteBytes(b, ToBytes("bravo EDIT!"));  // same size, new bytes
    // Records with real keys that claim the synced bytes.
    TreeIndexWriter lies;
    std::vector<std::string> names;
    for (const auto& [name, data] : files) {
      names.push_back(name);
    }
    if (variant == "unsorted") {
      std::reverse(names.begin(), names.end());
    }
    for (const std::string& name : names) {
      lies.Add(name, KeyOf(root_ / name), FileFingerprint(files.at(name)));
    }
    Bytes lying = lies.Finish();
    if (variant == "none") {
      fs::remove(index_path);
    } else if (variant == "truncated") {
      WriteBytes(index_path,
                 Bytes(good.begin(), good.begin() + good.size() / 2));
    } else if (variant == "bit-flipped") {
      Bytes flipped = good;
      flipped[flipped.size() / 2] ^= 0x01;
      WriteBytes(index_path, flipped);
    } else if (variant == "wrong magic") {
      lying[0] = 'G';
      Reseal(lying);
      WriteBytes(index_path, lying);
    } else {
      WriteBytes(index_path, lying);  // unsorted, validly sealed
    }
    EXPECT_EQ(TreeIndex::Load(root_).size(), 0u);
    auto report = ApplyTree(root(), next, BuildManifest(files));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    auto tree = LoadTree(root());
    EXPECT_TRUE(tree.ok());
    if (!report.ok() || !tree.ok()) {
      return {};
    }
    return {Outcomes(*report), report->conflicts, CommittedManifest(), *tree};
  };

  const Result none = run("none");
  EXPECT_EQ(none.conflicts, std::vector<std::string>{"dir/b.txt"});
  for (const char* variant :
       {"truncated", "bit-flipped", "wrong magic", "unsorted"}) {
    SCOPED_TRACE(variant);
    const Result got = run(variant);
    EXPECT_EQ(got.outcomes, none.outcomes);
    EXPECT_EQ(got.conflicts, none.conflicts);
    EXPECT_EQ(got.manifest, none.manifest);
    EXPECT_EQ(got.tree, none.tree);
  }
}

TEST_F(IndexedApplyTest, IndexNameIsRefusedOnTheWireAndSkippedByLoad) {
  for (const std::string evil : {".fsx-index", "dir/.fsx-index"}) {
    SCOPED_TRACE(evil);
    fs::remove_all(root_);
    Collection files = SampleFiles();
    files[evil] = ToBytes("FSXI1\n a forged index");
    auto report = ApplyTree(root(), files, Manifest{});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(fs::exists(root_ / evil));
  }
  const Collection files = SampleFiles();
  SeedWarm(files);
  ASSERT_TRUE(fs::is_regular_file(root_ / kIndexName));
  auto loaded = LoadTree(root());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, files);
  auto dirty = VerifyTree(root());
  ASSERT_TRUE(dirty.ok());
  EXPECT_TRUE(dirty->empty());
  // The mirror delete leaves it alone, too.
  auto again = ApplyTree(root(), files, BuildManifest(files));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->files_deleted, 0u);
  EXPECT_TRUE(fs::is_regular_file(root_ / kIndexName));
}

}  // namespace
}  // namespace fsx::store
