#include "fsync/store/tree_index.h"

#include <time.h>

#include <cstring>
#include <memory>

#include "fsync/hash/crc32c.h"
#include "fsync/store/crashpoint.h"
#include "fsync/store/journal.h"
#include "fsync/store/vfs.h"
#include "fsync/util/mapped_file.h"

namespace fsx::store {

namespace fs = std::filesystem;

namespace {

// Image layout, little-endian:
//   magic "FSXI1\n" | u32 count | count x record | u32 CRC32C(all before)
//   record: u16 path length | path | u64 dev | u64 ino | u64 size |
//           i64 mtime_ns | i64 ctime_ns | u32 mode | 16-byte fingerprint
constexpr uint8_t kMagic[] = {'F', 'S', 'X', 'I', '1', '\n'};
constexpr size_t kMagicLen = sizeof(kMagic);
constexpr size_t kHeaderLen = kMagicLen + 4;
constexpr size_t kKeyLen = 5 * 8 + 4;
constexpr size_t kRecordFixedLen = 2 + kKeyLen + sizeof(Fingerprint);
constexpr size_t kMaxPathLen = 0xFFFF;

uint8_t* PutLe(uint8_t* p, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return p + bytes;
}

uint64_t GetLe(const uint8_t* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

int64_t Nanos(const struct timespec& ts) {
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

StatKey StatKeyOf(const struct stat& st) {
  StatKey key;
  key.dev = static_cast<uint64_t>(st.st_dev);
  key.ino = static_cast<uint64_t>(st.st_ino);
  key.size = static_cast<uint64_t>(st.st_size);
  key.mtime_ns = Nanos(st.st_mtim);
  key.ctime_ns = Nanos(st.st_ctim);
  key.mode = static_cast<uint32_t>(st.st_mode);
  return key;
}

int64_t CoarseNowNs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_REALTIME_COARSE, &ts);
  return Nanos(ts);
}

bool MayRecord(const StatKey& key, int64_t clock_ns) {
  // A file system that keeps coarser times (whole seconds, FAT's two
  // seconds, exFAT's ten milliseconds, microseconds) stamps an edit made
  // just after `clock_ns` with the clock rounded down to its unit, which
  // can equal a time older than the clock itself. So each time is
  // compared with the clock rounded down to the coarsest unit that time
  // is a whole multiple of: its file system's unit, or by chance a
  // coarser one, which only records less. mtime and ctime are judged
  // apart, since one file system may stamp them in different units
  // (vfat: mtime in 2 s, ctime in 10 ms).
  auto older = [clock_ns](int64_t time_ns) {
    int64_t unit = 1;
    while (unit < 1'000'000'000 && time_ns % (unit * 10) == 0) {
      unit *= 10;
    }
    if (unit == 1'000'000'000 && time_ns % (2 * unit) == 0) {
      unit *= 2;
    }
    return time_ns < clock_ns - clock_ns % unit;
  };
  return older(key.mtime_ns) && older(key.ctime_ns);
}

TreeIndex TreeIndex::Load(const fs::path& root) {
  auto image = ReadWholeFile((root / kIndexName).string());
  if (!image.ok()) {
    return TreeIndex();
  }
  return Parse(std::move(*image));
}

TreeIndex TreeIndex::Parse(Bytes image) {
  TreeIndex index;
  const size_t n = image.size();
  if (n < kHeaderLen + 4 || n > UINT32_MAX ||
      std::memcmp(image.data(), kMagic, kMagicLen) != 0 ||
      Crc32c(ByteSpan(image.data(), n - 4)) !=
          static_cast<uint32_t>(GetLe(image.data() + n - 4, 4))) {
    return index;
  }
  const uint8_t* p = image.data();
  const size_t end = n - 4;
  const uint64_t count = GetLe(p + kMagicLen, 4);
  if (count > (end - kHeaderLen) / kRecordFixedLen) {
    return index;
  }
  index.image_ = std::move(image);  // the heap buffer, and `p`, stay put
  index.records_.reserve(count);
  std::string_view prev;
  size_t pos = kHeaderLen;
  for (uint64_t i = 0; i < count; ++i) {
    if (end - pos < kRecordFixedLen) {
      return TreeIndex();
    }
    const size_t len = GetLe(p + pos, 2);
    if (len == 0 || end - pos < kRecordFixedLen + len) {
      return TreeIndex();
    }
    const std::string_view path(reinterpret_cast<const char*>(p + pos + 2),
                                len);
    if (i > 0 && !(prev < path)) {
      return TreeIndex();  // unsorted or duplicated: the join needs order
    }
    prev = path;
    index.records_.push_back(static_cast<uint32_t>(pos));
    pos += kRecordFixedLen + len;
  }
  if (pos != end) {
    return TreeIndex();
  }
  return index;
}

IndexRecord TreeIndex::operator[](size_t i) const {
  const uint8_t* rec = image_.data() + records_[i];
  IndexRecord r;
  r.path = std::string_view(reinterpret_cast<const char*>(rec + 2),
                            GetLe(rec, 2));
  const uint8_t* k = rec + 2 + r.path.size();
  r.key.dev = GetLe(k, 8);
  r.key.ino = GetLe(k + 8, 8);
  r.key.size = GetLe(k + 16, 8);
  r.key.mtime_ns = static_cast<int64_t>(GetLe(k + 24, 8));
  r.key.ctime_ns = static_cast<int64_t>(GetLe(k + 32, 8));
  r.key.mode = static_cast<uint32_t>(GetLe(k + 40, 4));
  std::memcpy(r.fingerprint.data(), k + kKeyLen, r.fingerprint.size());
  return r;
}

TreeIndexWriter::TreeIndexWriter() : out_(kHeaderLen) {
  std::memcpy(out_.data(), kMagic, kMagicLen);  // the count: Finish
}

void TreeIndexWriter::Add(std::string_view path, const StatKey& key,
                          const Fingerprint& fingerprint) {
  if (path.empty() || path.size() > kMaxPathLen) {
    return;  // not representable; the file just misses next time
  }
  const size_t at = out_.size();
  out_.resize(at + kRecordFixedLen + path.size());
  uint8_t* p = PutLe(out_.data() + at, path.size(), 2);
  std::memcpy(p, path.data(), path.size());
  p = PutLe(p + path.size(), key.dev, 8);
  p = PutLe(p, key.ino, 8);
  p = PutLe(p, key.size, 8);
  p = PutLe(p, static_cast<uint64_t>(key.mtime_ns), 8);
  p = PutLe(p, static_cast<uint64_t>(key.ctime_ns), 8);
  p = PutLe(p, key.mode, 4);
  std::memcpy(p, fingerprint.data(), fingerprint.size());
  ++count_;
}

Bytes TreeIndexWriter::Finish() {
  PutLe(out_.data() + kMagicLen, count_, 4);
  const uint32_t crc = Crc32c(ByteSpan(out_.data(), out_.size()));
  out_.resize(out_.size() + 4);
  PutLe(out_.data() + out_.size() - 4, crc, 4);
  return std::move(out_);
}

Status WriteTreeIndex(const fs::path& root, ByteSpan image) {
  Vfs& vfs = CurrentVfs();
  const fs::path target = root / kIndexName;
  fs::path tmp = target;
  tmp += kTempSuffix;
  Status s = [&]() -> Status {
    FSYNC_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                           vfs.Open(tmp, OpenMode::kTruncate));
    FSYNC_RETURN_IF_ERROR(WriteFully(*file, image));
    FSYNC_RETURN_IF_ERROR(file->Close());
    FireCrashPoint("index:staged");
    // Unlink, then rename onto the free name: on ext4 a rename that
    // replaces a file starts writeback of the new one at once
    // (auto_da_alloc), a flush this cache does not need.
    FSYNC_RETURN_IF_ERROR(vfs.Unlink(target).status());
    return vfs.Rename(tmp, target);
  }();
  if (!s.ok()) {
    (void)vfs.Unlink(tmp);
  }
  return s;
}

}  // namespace fsx::store
