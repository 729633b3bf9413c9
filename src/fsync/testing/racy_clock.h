// Test helper for the stat index's racy-clean rule (store/tree_index.h):
// an apply records a file only when its mtime and ctime are strictly
// older than the coarse clock reading the apply takes before its walk.
// A test that wants an apply to record the files it just wrote waits
// here first.
#ifndef FSYNC_TESTING_RACY_CLOCK_H_
#define FSYNC_TESTING_RACY_CLOCK_H_

#include <time.h>

#include <chrono>
#include <thread>

#include "fsync/store/tree_index.h"

namespace fsx::testing {

/// Returns once CLOCK_REALTIME_COARSE has advanced two of its ticks past
/// its reading at the call, so every file time set before the call
/// (coarse, or a fine-grained time inside the current tick) is strictly
/// older than any later reading. Enough on file systems that stamp
/// nanoseconds (ext4, xfs, btrfs, tmpfs); one that stamps whole seconds
/// would need the next second as well (MayRecord rounds down to it).
inline void WaitPastCoarseTick() {
  struct timespec res;
  ::clock_getres(CLOCK_REALTIME_COARSE, &res);
  const int64_t tick = static_cast<int64_t>(res.tv_sec) * 1000000000 +
                       res.tv_nsec;
  const int64_t until = store::CoarseNowNs() + 2 * tick;
  while (store::CoarseNowNs() <= until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace fsx::testing

#endif  // FSYNC_TESTING_RACY_CLOCK_H_
