#include "fsync/netd/event_loop.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <sys/epoll.h>

namespace fsx::netd {

Status Poller::Open() {
  const int epfd = ::epoll_create1(0);
  if (epfd < 0) {
    return ErrnoToStatus(errno, "epoll_create1");
  }
  epfd_ = Fd(epfd);
  return Status::Ok();
}

Status Poller::Add(int fd, bool want_read, bool want_write) {
  return Ctl(EPOLL_CTL_ADD, fd, want_read, want_write);
}

Status Poller::Update(int fd, bool want_read, bool want_write) {
  return Ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
}

void Poller::Remove(int fd) {
  ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

Status Poller::Wait(int timeout_ms, std::vector<Event>* out) {
  out->clear();
  epoll_event events[128];
  int n;
  do {
    n = ::epoll_wait(epfd_.get(), events, 128, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::Internal(std::string("epoll_wait: ") +
                            std::strerror(errno));
  }
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = events[i].data.fd;
    e.readable = (events[i].events & EPOLLIN) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    e.hangup = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
    out->push_back(e);
  }
  return Status::Ok();
}

Status Poller::Ctl(int op, int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_.get(), op, fd, &ev) < 0) {
    return Status::Internal(std::string("epoll_ctl: ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace fsx::netd
