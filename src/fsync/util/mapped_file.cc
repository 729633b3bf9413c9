#include "fsync/util/mapped_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace fsx {

namespace {

// RAII fd so every early return below closes it.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

Status ReadAll(int fd, uint64_t file_size, Bytes& out,
               const std::string& path) {
  out.resize(file_size);
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::read(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("read " + path + ": " +
                              std::strerror(errno));
    }
    if (n == 0) {
      // File shrank between stat and read; a short result is still a
      // consistent snapshot of the remaining bytes.
      out.resize(off);
      break;
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    if (!mapped_) data_ = fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MappedFile::Reset() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  Fd f;
  f.fd = ::open(path.c_str(), O_RDONLY);
  if (f.fd < 0) {
    return Status::NotFound("cannot read " + path);
  }
  struct stat st;
  if (::fstat(f.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return Status::NotFound("not a regular file: " + path);
  }
  MappedFile m;
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size > 0) {
    void* p = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, f.fd, 0);
    if (p != MAP_FAILED) {
#if defined(MADV_SEQUENTIAL)
      ::madvise(p, file_size, MADV_SEQUENTIAL);  // advisory; may fail
#endif
      m.data_ = static_cast<const uint8_t*>(p);
      m.size_ = file_size;
      m.mapped_ = true;
      return m;
    }
  }
  // mmap declined (empty file, odd filesystem): owned-buffer fallback.
  FSYNC_RETURN_IF_ERROR(ReadAll(f.fd, file_size, m.fallback_, path));
  m.data_ = m.fallback_.data();
  m.size_ = m.fallback_.size();
  return m;
}

StatusOr<Bytes> ReadWholeFile(const std::string& path) {
  Fd f;
  // O_NONBLOCK: the fstat below is the only type check, so opening a
  // FIFO must not wait for a writer. It does not affect regular files.
  f.fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  if (f.fd < 0) {
    return Status::NotFound("cannot read " + path);
  }
  struct stat st;
  if (::fstat(f.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return Status::NotFound("not a regular file: " + path);
  }
  Bytes out;
  FSYNC_RETURN_IF_ERROR(
      ReadAll(f.fd, static_cast<uint64_t>(st.st_size), out, path));
  return out;
}

}  // namespace fsx
