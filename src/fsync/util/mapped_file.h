// Zero-copy file input: mmap the whole file read-only and hand out a
// ByteSpan over the mapping. The sync hot paths (client scan, server
// signature, bench loaders) stream every byte of multi-hundred-MB files
// exactly once or twice; mapping skips the kernel->user copy and the
// allocator's touch of a second resident copy, and lets the scan fault
// pages in sequentially (MADV_SEQUENTIAL) instead of blocking on one
// up-front read. Falls back to plain read(2) into an owned buffer for
// an empty file or where a filesystem declines mmap — the span API is
// identical either way, callers cannot tell which path they got.
#ifndef FSYNC_UTIL_MAPPED_FILE_H_
#define FSYNC_UTIL_MAPPED_FILE_H_

#include <string>
#include <utility>

#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Read-only view of a whole file, mmap-backed when possible. Move-only
/// RAII: the mapping (or fallback buffer) lives exactly as long as the
/// object, and every ByteSpan obtained from span() is invalidated by
/// destruction or move.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Reset(); }

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Opens and maps `path`. On mmap failure (no such syscall, exotic
  /// filesystem, empty file) reads the bytes into an owned buffer
  /// instead; only I/O errors surface as non-OK status.
  static StatusOr<MappedFile> Open(const std::string& path);

  /// The file's bytes. Valid until this object is destroyed or moved.
  ByteSpan span() const { return ByteSpan(data_, size_); }

  size_t size() const { return size_; }

  /// True when the bytes come from an mmap (false: owned fallback
  /// buffer). Execution detail — exposed for tests and diagnostics.
  bool is_mapped() const { return mapped_; }

 private:
  void Reset();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  Bytes fallback_;
};

/// Reads a whole file into an owned buffer with one open, an fstat of
/// that descriptor and a read loop (replaces istreambuf_iterator
/// readers, which go byte-at-a-time through the streambuf virtual
/// interface). Anything but a regular file — absent, a directory, a
/// FIFO, a device — is kNotFound, so callers need no stat of their own.
/// Use MappedFile when a view suffices; use this when the caller must
/// own mutable bytes.
StatusOr<Bytes> ReadWholeFile(const std::string& path);

}  // namespace fsx

#endif  // FSYNC_UTIL_MAPPED_FILE_H_
