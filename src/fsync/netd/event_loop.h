// Readiness polling for the daemon's single-threaded event loop: a
// level-triggered epoll instance.
//
// Level-triggered on purpose: with LT semantics a handler that drains
// only part of a socket (because of backpressure) is simply called again
// on the next Wait, so partial progress is always safe — the invariant
// the whole connection state machine leans on.
#ifndef FSYNC_NETD_EVENT_LOOP_H_
#define FSYNC_NETD_EVENT_LOOP_H_

#include <vector>

#include "fsync/netd/sockets.h"
#include "fsync/util/status.h"

namespace fsx::netd {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;  // EPOLLHUP/EPOLLERR: peer gone or socket broken
  };

  /// Creates the epoll instance; an error when the kernel refuses one.
  /// Call once, before any other method.
  Status Open();

  /// Registers `fd` with an initial interest set.
  Status Add(int fd, bool want_read, bool want_write);
  /// Changes the interest set of a registered fd.
  Status Update(int fd, bool want_read, bool want_write);
  /// Unregisters (no-op if not registered).
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready fds to
  /// `out` (cleared first). A premature wakeup with no events is normal.
  Status Wait(int timeout_ms, std::vector<Event>* out);

 private:
  Status Ctl(int op, int fd, bool want_read, bool want_write);

  Fd epfd_;
};

}  // namespace fsx::netd

#endif  // FSYNC_NETD_EVENT_LOOP_H_
