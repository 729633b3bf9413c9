#include "fsync/store/vfs.h"

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fsx::store {

namespace fs = std::filesystem;

const char* VfsOpName(VfsOp op) {
  switch (op) {
    case VfsOp::kOpen:
      return "open";
    case VfsOp::kRead:
      return "read";
    case VfsOp::kWrite:
      return "write";
    case VfsOp::kFsync:
      return "fsync";
    case VfsOp::kRename:
      return "rename";
    case VfsOp::kUnlink:
      return "unlink";
    case VfsOp::kMkdir:
      return "mkdir";
    case VfsOp::kFsyncPath:
      return "fsync-path";
  }
  return "unknown";
}

VfsCounters& GlobalVfsCounters() {
  static VfsCounters counters;
  return counters;
}

namespace {

class RealVfsFile : public VfsFile {
 public:
  RealVfsFile(fs::path path, int fd) : VfsFile(std::move(path)), fd_(fd) {}
  ~RealVfsFile() override { (void)Close(); }

  StatusOr<size_t> Read(void* buf, size_t n) override {
    for (;;) {
      ssize_t r = ::read(fd_, buf, n);
      if (r >= 0) {
        return static_cast<size_t>(r);
      }
      if (errno != EINTR) {
        return ErrnoToStatus(errno, "read " + path_.string());
      }
    }
  }

  StatusOr<size_t> Write(const void* buf, size_t n) override {
    for (;;) {
      ssize_t w = ::write(fd_, buf, n);
      if (w >= 0) {
        return static_cast<size_t>(w);
      }
      if (errno != EINTR) {
        return ErrnoToStatus(errno, "write " + path_.string());
      }
    }
  }

  Status Fsync() override {
    if (::fsync(fd_) != 0) {
      GlobalVfsCounters().fsync_failures.fetch_add(
          1, std::memory_order_relaxed);
      // An fsync EIO means dirty pages may already have been dropped
      // (fsyncgate): the data, not just the device, is suspect.
      Status s = ErrnoToStatus(errno, "fsync " + path_.string());
      if (s.code() == StatusCode::kUnavailable) {
        return Status::DataLoss(s.message());
      }
      return s;
    }
    return Status::Ok();
  }

  Status Close() override {
    if (fd_ < 0) {
      return Status::Ok();
    }
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return ErrnoToStatus(errno, "close " + path_.string());
    }
    return Status::Ok();
  }

 private:
  int fd_;
};

class RealVfs : public Vfs {
 public:
  StatusOr<std::unique_ptr<VfsFile>> Open(const fs::path& path,
                                          OpenMode mode) override {
    int flags = 0;
    switch (mode) {
      case OpenMode::kRead:
        flags = O_RDONLY;
        break;
      case OpenMode::kTruncate:
        flags = O_WRONLY | O_CREAT | O_TRUNC;
        break;
    }
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return ErrnoToStatus(errno, "open " + path.string());
    }
    // O_RDONLY on a directory succeeds; the EISDIR only surfaces at
    // read(2). Reject it here so "the journal is a directory" is a
    // typed status at open, not a late read error.
    struct stat st;
    if (::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode)) {
      ::close(fd);
      return ErrnoToStatus(EISDIR, "open " + path.string());
    }
    return std::unique_ptr<VfsFile>(new RealVfsFile(path, fd));
  }

  Status Rename(const fs::path& from, const fs::path& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoToStatus(errno, "rename " + from.string() + " -> " +
                                      to.string());
    }
    return Status::Ok();
  }

  StatusOr<bool> Unlink(const fs::path& path) override {
    if (::unlink(path.c_str()) != 0) {
      if (errno == ENOENT) {
        return false;
      }
      return ErrnoToStatus(errno, "unlink " + path.string());
    }
    return true;
  }

  Status Mkdir(const fs::path& path) override {
    if (::mkdir(path.c_str(), 0755) != 0) {
      if (errno == EEXIST) {
        std::error_code ec;
        if (fs::is_directory(path, ec)) {
          return Status::Ok();
        }
        return Status::FailedPrecondition("mkdir " + path.string() +
                                          ": exists and is not a directory");
      }
      return ErrnoToStatus(errno, "mkdir " + path.string());
    }
    return Status::Ok();
  }

  Status FsyncPath(const fs::path& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return ErrnoToStatus(errno, "open for fsync " + path.string());
    }
    int rc = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    if (rc != 0) {
      GlobalVfsCounters().fsync_failures.fetch_add(
          1, std::memory_order_relaxed);
      Status s = ErrnoToStatus(saved, "fsync " + path.string());
      if (s.code() == StatusCode::kUnavailable) {
        return Status::DataLoss(s.message());
      }
      return s;
    }
    return Status::Ok();
  }
};

std::atomic<Vfs*>& CurrentVfsSlot() {
  static std::atomic<Vfs*> current{nullptr};
  return current;
}

}  // namespace

Vfs& RealVfsInstance() {
  static RealVfs real;
  return real;
}

Vfs& CurrentVfs() {
  Vfs* v = CurrentVfsSlot().load(std::memory_order_acquire);
  return v != nullptr ? *v : RealVfsInstance();
}

Vfs* SetCurrentVfs(Vfs* vfs) {
  return CurrentVfsSlot().exchange(vfs, std::memory_order_acq_rel);
}

Status WriteFully(VfsFile& file, ByteSpan data) {
  size_t off = 0;
  while (off < data.size()) {
    FSYNC_ASSIGN_OR_RETURN(size_t n,
                           file.Write(data.data() + off, data.size() - off));
    if (n == 0) {
      return Status::Internal("zero-length write on " +
                              file.path().string());
    }
    off += n;
  }
  return Status::Ok();
}

StatusOr<Bytes> ReadFileViaVfs(Vfs& vfs, const fs::path& path) {
  FSYNC_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                         vfs.Open(path, OpenMode::kRead));
  Bytes out;
  uint8_t buf[1 << 16];
  for (;;) {
    FSYNC_ASSIGN_OR_RETURN(size_t n, file->Read(buf, sizeof(buf)));
    if (n == 0) {
      break;
    }
    out.insert(out.end(), buf, buf + n);
  }
  FSYNC_RETURN_IF_ERROR(file->Close());
  return out;
}

Status MkdirAll(Vfs& vfs, const fs::path& dir) {
  std::error_code ec;
  if (dir.empty() || fs::exists(dir, ec)) {
    return Status::Ok();
  }
  std::vector<fs::path> missing;
  fs::path ancestor = dir;
  while (!ancestor.empty() && !fs::exists(ancestor, ec)) {
    missing.push_back(ancestor);
    fs::path parent = ancestor.parent_path();
    if (parent == ancestor) {
      break;
    }
    ancestor = parent;
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    FSYNC_RETURN_IF_ERROR(vfs.Mkdir(*it));
  }
  return Status::Ok();
}

}  // namespace fsx::store
