// Pluggable VFS seam under the store layer. Every disk syscall the
// durable-apply path performs (open/read/write/fsync/rename/unlink/
// mkdir) goes through the process-current `Vfs`, so a test can swap in
// a deterministic fault injector (vfs_fault.h) and fail any single
// operation — the disk-fault analogue of the crashpoint
// seam (crashpoint.h) the kill-point harness uses.
//
// `RealVfs` is the default: thin POSIX wrappers whose errors carry the
// errno taxonomy (ErrnoToStatus in util/status.h) instead of collapsing
// into kInternal — ENOSPC surfaces as kResourceExhausted, EIO as
// kUnavailable (kDataLoss from fsync, where dirty pages may already be
// gone), EACCES/EROFS as kFailedPrecondition. The seam is process-
// global (CurrentVfs/ScopedVfs), mirroring the crash hook: threading a
// Vfs& through every signature would churn the whole store API for a
// pointer that is RealVfs everywhere outside tests.
//
// Bulk content *reads* (MappedFile/ReadWholeFile) intentionally stay
// off the seam: they are the mmap hot path, and the fault modes that
// matter for correctness are on the write/fsync/rename side. FaultVfs's
// failed-fsync mode still reaches those readers by restoring stale
// bytes to the real file (see vfs_fault.h).
#ifndef FSYNC_STORE_VFS_H_
#define FSYNC_STORE_VFS_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::store {

/// Operation kinds, for fault scoping and op-index sweeps.
enum class VfsOp : uint8_t {
  kOpen = 0,
  kRead,
  kWrite,
  kFsync,
  kRename,
  kUnlink,
  kMkdir,
  kFsyncPath,
};

const char* VfsOpName(VfsOp op);

enum class OpenMode : uint8_t {
  kRead = 0,      // O_RDONLY; directories are rejected (typed status)
  kTruncate,      // O_WRONLY | O_CREAT | O_TRUNC
};

/// One open file. Short reads/writes are returned, not looped — use
/// WriteFully/ReadFully below; EINTR is retried inside the
/// implementation and never surfaces.
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  /// Sequential read at the current offset; 0 = EOF.
  virtual StatusOr<size_t> Read(void* buf, size_t n) = 0;
  /// Sequential write at the current offset (append-shaped callers —
  /// the journal — only ever write forward).
  virtual StatusOr<size_t> Write(const void* buf, size_t n) = 0;
  virtual Status Fsync() = 0;
  /// Idempotent; also invoked by the destructor (errors then dropped).
  virtual Status Close() = 0;

  const std::filesystem::path& path() const { return path_; }

 protected:
  explicit VfsFile(std::filesystem::path path) : path_(std::move(path)) {}
  std::filesystem::path path_;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual StatusOr<std::unique_ptr<VfsFile>> Open(
      const std::filesystem::path& path, OpenMode mode) = 0;
  virtual Status Rename(const std::filesystem::path& from,
                        const std::filesystem::path& to) = 0;
  /// Removes a file. Returns true when something was removed, false
  /// when the path did not exist (not an error).
  virtual StatusOr<bool> Unlink(const std::filesystem::path& path) = 0;
  /// Creates one directory. An existing directory is OK (returns Ok);
  /// an existing non-directory is a typed error.
  virtual Status Mkdir(const std::filesystem::path& path) = 0;
  /// fsyncs an existing file or directory by path.
  virtual Status FsyncPath(const std::filesystem::path& path) = 0;
};

/// The default passthrough implementation over the host filesystem.
Vfs& RealVfsInstance();

/// The process-current Vfs every store-layer disk operation routes
/// through. Defaults to RealVfsInstance(). Thread-safe (atomic load).
Vfs& CurrentVfs();

/// Installs `vfs` as current (nullptr restores RealVfs); returns the
/// previous override (nullptr when RealVfs was current).
Vfs* SetCurrentVfs(Vfs* vfs);

/// RAII override for tests: install on construction, restore on
/// destruction.
class ScopedVfs {
 public:
  explicit ScopedVfs(Vfs* vfs) : prev_(SetCurrentVfs(vfs)) {}
  ~ScopedVfs() { SetCurrentVfs(prev_); }
  ScopedVfs(const ScopedVfs&) = delete;
  ScopedVfs& operator=(const ScopedVfs&) = delete;

 private:
  Vfs* prev_;
};

/// Writes all of `data`, looping over short writes. The single helper
/// every store-layer write goes through (journal header included), so
/// short-write and EINTR handling cannot be forgotten at a call site.
Status WriteFully(VfsFile& file, ByteSpan data);

/// Reads the whole file at `path` through `vfs` (chunked Read loop; for
/// the small bookkeeping files — journals, checkpoints — that must be
/// fault-injectable; bulk content reads use util/mapped_file.h).
StatusOr<Bytes> ReadFileViaVfs(Vfs& vfs, const std::filesystem::path& path);

/// Creates `dir` and any missing ancestors via vfs.Mkdir. No fsync
/// (CreateDirsDurable in durable_io.h adds the durability barriers).
Status MkdirAll(Vfs& vfs, const std::filesystem::path& dir);

/// Process-wide counters over vfs-level failures, surfaced in
/// --metrics-json as `fsync_failures` / `disk_faults_injected`. The
/// fsync counter is bumped by every failing Fsync/FsyncPath regardless
/// of which Vfs is installed — a failed fsync must never be silently
/// absorbed, so the count is taken at the narrowest point.
struct VfsCounters {
  std::atomic<uint64_t> fsync_failures{0};
  std::atomic<uint64_t> faults_injected{0};
};
VfsCounters& GlobalVfsCounters();

}  // namespace fsx::store

#endif  // FSYNC_STORE_VFS_H_
