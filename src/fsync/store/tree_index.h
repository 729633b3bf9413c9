// The apply's stat cache, stored as `<root>/.fsx-index`: path ->
// (dev, ino, size, mtime_ns, ctime_ns, mode) -> fingerprint. It lets
// ApplyTree learn the disk state of a file it does not touch from the
// one fstatat of its tree walk (tree_walk.h) instead of re-reading the
// file, so a 1%-churn apply reads about 1% of the tree.
//
// The index is never authoritative. A record is used only when every
// key equals the file's stat now; a missing, truncated, corrupt or
// unsorted index is simply empty, and every lookup then misses and
// takes the read path — never an error. It is written after a commit
// via temp + rename, with no fsync and no journal: a crash or disk
// fault leaves the old index whole or no index at all.
//
// The racy-clean rule is per record, not per index file (compare git,
// which compares against the index's own mtime): a record is kept only
// when the file's mtime and ctime are both strictly older than a
// CLOCK_REALTIME_COARSE reading taken before the stat that produced the
// key, and that stat came before the content read it pairs with. An
// edit landing after the clock reading then carries a timestamp at or
// past it, so no later edit can leave all keys equal to a record that
// names the old bytes. The index's write time would not do: the stats
// are taken long before the index is written, so that rule would keep
// a record whose file was edited in the same tick as its read.
#ifndef FSYNC_STORE_TREE_INDEX_H_
#define FSYNC_STORE_TREE_INDEX_H_

#include <sys/stat.h>

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "fsync/hash/fingerprint.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::store {

inline constexpr char kIndexName[] = ".fsx-index";

/// The part of a file's stat that an edit, a replacement or a copy
/// changes. All of it must match for a record to be used.
struct StatKey {
  uint64_t dev = 0;
  uint64_t ino = 0;
  uint64_t size = 0;
  int64_t mtime_ns = 0;
  int64_t ctime_ns = 0;
  uint32_t mode = 0;
  friend bool operator==(const StatKey&, const StatKey&) = default;
};

StatKey StatKeyOf(const struct stat& st);

/// CLOCK_REALTIME_COARSE in nanoseconds: the clock the kernel stamps
/// file times from. Read it before the stats whose records it guards.
int64_t CoarseNowNs();

/// The racy-clean rule (see above): true when a record keyed on `key`
/// may be kept, i.e. mtime and ctime are each strictly older than
/// `clock_ns`, a CoarseNowNs() reading taken before the stat, rounded
/// down to the time unit that time is stamped in.
bool MayRecord(const StatKey& key, int64_t clock_ns);

/// One record of a loaded index.
struct IndexRecord {
  std::string_view path;  // a view into the loaded image
  StatKey key;
  Fingerprint fingerprint;
};

/// A loaded index: the one image buffer, with the offset of each record
/// (sorted by path). A record is decoded from the image when it is
/// asked for, so a loaded index costs its file size plus four bytes a
/// record.
class TreeIndex {
 public:
  TreeIndex() = default;
  TreeIndex(TreeIndex&&) = default;
  TreeIndex& operator=(TreeIndex&&) = default;

  /// Reads `<root>/.fsx-index`; any defect gives an empty index.
  static TreeIndex Load(const std::filesystem::path& root);
  /// Parses an index image: a bad magic, a bad CRC32C (which covers the
  /// whole file), a truncated record or paths not strictly ascending
  /// give an empty index.
  static TreeIndex Parse(Bytes image);

  size_t size() const { return records_.size(); }

  /// The `i`th record in path order; valid while the index lives.
  IndexRecord operator[](size_t i) const;

 private:
  Bytes image_;
  std::vector<uint32_t> records_;  // offsets into image_
};

/// Builds an index image. Add records in strictly ascending path order.
class TreeIndexWriter {
 public:
  TreeIndexWriter();
  void Add(std::string_view path, const StatKey& key,
           const Fingerprint& fingerprint);
  /// The finished image (count and CRC32C filled in).
  Bytes Finish();

 private:
  Bytes out_;
  uint32_t count_ = 0;
};

/// Replaces `<root>/.fsx-index` with `image` via a `.fsx-tmp` temp and a
/// rename through the process-current Vfs, without fsync. On any
/// failure the temp is removed (best effort) and the status returned;
/// the old index is then whole or gone, never torn.
Status WriteTreeIndex(const std::filesystem::path& root, ByteSpan image);

}  // namespace fsx::store

#endif  // FSYNC_STORE_TREE_INDEX_H_
