// Fork-based kill-point crash harness for the durable-apply subsystem.
// The crash suite needs to die *honestly*: no destructors, no stream
// flushes, no atexit — the way a power cut or SIGKILL leaves a process.
// So each probe forks, the child installs a crash hook that _exit()s at
// the n-th crash point (see store/crashpoint.h), runs the operation
// under test, and the parent classifies the outcome from the wait
// status. Sweeping n from 0 until the run completes visits every
// fsync/rename/journal-append boundary exactly once; after each crashed
// run the test recovers the tree and asserts every file is bit-exactly
// old or new (tests/crash_test.cc, docs/testing.md).
#ifndef FSYNC_TESTING_CRASH_H_
#define FSYNC_TESTING_CRASH_H_

#include <cstdint>
#include <functional>
#include <string>

namespace fsx::testing {

struct CrashRunResult {
  enum class Outcome {
    kCompleted,  // the operation finished; fewer than n points fired
    kCrashed,    // the child _exit()ed at crash point n as planned
    kError,      // the child failed some other way (bug, not a crash)
  };
  Outcome outcome = Outcome::kCompleted;
  /// Crash points the child fired before finishing (kCompleted only).
  uint64_t points = 0;
  int exit_code = 0;  // raw child exit code (kError diagnostics)
  std::string error;  // harness-level failure (fork/pipe), empty if none
};

/// Runs `fn` in a forked child that _exit()s with store::kCrashExitCode
/// at crash point `crash_at` (zero-based). `crash_at < 0` disables the
/// kill and reports the total number of points the run fires — the
/// sweep bound. The child treats a non-OK result from `fn` as failure
/// (exit 1 → kError).
CrashRunResult RunWithCrashAt(int64_t crash_at,
                              const std::function<bool()>& fn);

/// Convenience: runs `fn` to completion with no kill installed and
/// returns how many crash points it fires (0 on harness failure).
uint64_t CountCrashPoints(const std::function<bool()>& fn);

}  // namespace fsx::testing

#endif  // FSYNC_TESTING_CRASH_H_
