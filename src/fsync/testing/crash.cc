#include "fsync/testing/crash.h"

#include <cerrno>
#include <cstring>

#include "fsync/store/crashpoint.h"

#include <sys/wait.h>
#include <unistd.h>

namespace fsx::testing {

CrashRunResult RunWithCrashAt(int64_t crash_at,
                              const std::function<bool()>& fn) {
  CrashRunResult result;

  // The completed child reports its crash-point count back through a
  // pipe; a crashed child dies before writing, which is itself the
  // signal that the kill landed.
  int fds[2];
  if (::pipe(fds) != 0) {
    result.outcome = CrashRunResult::Outcome::kError;
    result.error = std::string("pipe failed: ") + std::strerror(errno);
    return result;
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    result.outcome = CrashRunResult::Outcome::kError;
    result.error = std::string("fork failed: ") + std::strerror(errno);
    return result;
  }

  if (pid == 0) {
    // Child. _exit everywhere: flushing buffers or running destructors
    // would make the simulated crash dishonestly graceful.
    ::close(fds[0]);
    if (crash_at >= 0) {
      store::SetCrashHook([crash_at](const char* /*label*/, uint64_t index) {
        if (static_cast<int64_t>(index) == crash_at) {
          ::_exit(store::kCrashExitCode);
        }
      });
    } else {
      store::SetCrashHook({});  // reset the counter for a clean count
    }
    bool ok = fn();
    uint64_t points = store::CrashPointsFired();
    ssize_t n = ::write(fds[1], &points, sizeof(points));
    ::_exit(ok && n == static_cast<ssize_t>(sizeof(points)) ? 0 : 1);
  }

  // Parent.
  ::close(fds[1]);
  uint64_t points = 0;
  size_t got = 0;
  while (got < sizeof(points)) {
    ssize_t n = ::read(fds[0], reinterpret_cast<char*>(&points) + got,
                       sizeof(points) - got);
    if (n <= 0) {
      break;  // EOF: the child died before reporting
    }
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);

  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) {
    result.outcome = CrashRunResult::Outcome::kError;
    result.error = std::string("waitpid failed: ") + std::strerror(errno);
    return result;
  }

  if (WIFEXITED(wait_status)) {
    result.exit_code = WEXITSTATUS(wait_status);
    if (result.exit_code == 0 && got == sizeof(points)) {
      result.outcome = CrashRunResult::Outcome::kCompleted;
      result.points = points;
    } else if (result.exit_code == store::kCrashExitCode) {
      result.outcome = CrashRunResult::Outcome::kCrashed;
    } else {
      result.outcome = CrashRunResult::Outcome::kError;
      result.error = "child exited with code " +
                     std::to_string(result.exit_code);
    }
  } else {
    result.outcome = CrashRunResult::Outcome::kError;
    result.exit_code = -1;
    result.error = "child terminated abnormally";
  }
  return result;
}

uint64_t CountCrashPoints(const std::function<bool()>& fn) {
  CrashRunResult r = RunWithCrashAt(-1, fn);
  return r.outcome == CrashRunResult::Outcome::kCompleted ? r.points : 0;
}

}  // namespace fsx::testing
