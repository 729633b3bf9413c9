#include "fsync/netd/sockets.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace fsx::netd {

void Fd::Close() {
  if (fd_ >= 0) {
    // Retrying close on EINTR risks double-closing a reused descriptor
    // on Linux; a single close is the correct idiom.
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(O_NONBLOCK): ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best effort; fails harmlessly on non-TCP sockets.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

StatusOr<Fd> ListenTcp(const std::string& host, uint16_t port,
                       uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("listen: bad IPv4 address '" + host + "'");
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal("bind " + host + ":" + std::to_string(port) +
                            ": " + std::strerror(errno));
  }
  if (::listen(fd.get(), 128) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &len) < 0) {
      return Status::Internal(std::string("getsockname: ") +
                              std::strerror(errno));
    }
    *bound_port = ntohs(actual.sin_port);
  }
  FSYNC_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

StatusOr<Fd> ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // stale socket file from a previous run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.get(), 128) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  FSYNC_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

StatusOr<Fd> ConnectTcp(const std::string& host, uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("connect: bad IPv4 address '" + host +
                                   "'");
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
  }
  SetNoDelay(fd.get());
  return fd;
}

StatusOr<Fd> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::Unavailable("connect " + path + ": " +
                               std::strerror(errno));
  }
  return fd;
}

long SocketIo::Read(uint8_t* buf, size_t len, bool* would_block) {
  *would_block = false;
  size_t ask = len;
  if (fault != nullptr) {
    if (fault->ResetDue()) {
      return -2;
    }
    ask = fault->ClampRead(len);
    if (ask == 0) {
      *would_block = true;  // injected stall
      return -1;
    }
  }
  ssize_t n;
  do {
    n = ::read(fd, buf, ask);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return -1;
    }
    return -2;
  }
  if (fault != nullptr) {
    fault->AddBytes(static_cast<uint64_t>(n));
  }
  return n;
}

long SocketIo::Write(const uint8_t* buf, size_t len, bool* would_block) {
  *would_block = false;
  size_t ask = len;
  if (fault != nullptr) {
    if (fault->ResetDue()) {
      return -2;
    }
    ask = fault->ClampWrite(len);
    if (ask == 0) {
      *would_block = true;
      return -1;
    }
  }
  ssize_t n;
  do {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process kill.
    n = ::send(fd, buf, ask, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return -1;
    }
    return -2;
  }
  if (fault != nullptr) {
    fault->AddBytes(static_cast<uint64_t>(n));
  }
  return n;
}

}  // namespace fsx::netd
