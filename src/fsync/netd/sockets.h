// Thin POSIX socket wrappers for the sync daemon: RAII fd ownership,
// non-blocking listeners/connections over TCP loopback-or-LAN and
// Unix-domain sockets, and fault-injectable read/write helpers. All
// higher netd layers speak to sockets exclusively through SocketIo, so
// the chaos suite can interpose short reads/writes, stalls, and resets
// at the one choke point (fault.h).
#ifndef FSYNC_NETD_SOCKETS_H_
#define FSYNC_NETD_SOCKETS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "fsync/netd/fault.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx::netd {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void Close();

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK (daemon side; every daemon fd is non-blocking).
Status SetNonBlocking(int fd);
/// Disables Nagle on TCP sockets (request/response protocol; latency
/// matters more than tinygram coalescing). No-op on non-TCP fds.
void SetNoDelay(int fd);

/// Listening socket on `host:port` (port 0 = ephemeral). Returns the fd;
/// `*bound_port` receives the actual port.
StatusOr<Fd> ListenTcp(const std::string& host, uint16_t port,
                       uint16_t* bound_port);
/// Listening Unix-domain socket at `path` (unlinked first if stale).
StatusOr<Fd> ListenUnix(const std::string& path);

/// Blocking connect (client side).
StatusOr<Fd> ConnectTcp(const std::string& host, uint16_t port);
StatusOr<Fd> ConnectUnix(const std::string& path);

/// All socket I/O in netd flows through one of these, so tests can
/// interpose faults. With a null injector it is plain read()/write().
struct SocketIo {
  int fd = -1;
  FaultInjector* fault = nullptr;

  /// Reads up to `len` bytes. Returns 0 on EOF, -1 with `would_block`
  /// set when the socket has nothing (EAGAIN), -2 on hard error or an
  /// injected reset.
  long Read(uint8_t* buf, size_t len, bool* would_block);
  /// Writes up to `len` bytes, returns bytes accepted (possibly short),
  /// -1 with `would_block`, -2 on hard error / injected reset.
  long Write(const uint8_t* buf, size_t len, bool* would_block);
};

}  // namespace fsx::netd

#endif  // FSYNC_NETD_SOCKETS_H_
