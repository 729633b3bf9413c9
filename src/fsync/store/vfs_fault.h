// Deterministic disk-fault injection over the VFS seam (vfs.h). A
// FaultVfs wraps a base Vfs (RealVfs by default) and fails operations
// according to declarative rules:
//
//   - fail the Nth op matching a path pattern / op mask, with a chosen
//     errno (one-shot or sticky) — the op-index sweep primitive, the
//     disk analogue of the kill-point sweep in testing/crash.h;
//   - ENOSPC after a byte budget: once a rule's matching writes have
//     consumed `enospc_after_bytes`, every further matching write fails
//     with ENOSPC (sticky, like a genuinely full disk);
//   - one-shot failed fsync with "fsyncgate" semantics: the fsync
//     returns an error AND the file's content is restored to its state
//     as of the last successful fsync (or open), so post-failure reads
//     — including mmap readers that bypass the seam — observe stale
//     data, exactly the case where trusting a failed fsync corrupts
//     the replica.
//
// Deterministic and seed-free by construction: rules are indexed by op
// count, not randomness, so any failure replays from the rule alone.
// Thread-safe: the netd chaos suite runs 16 client threads against one
// process-global FaultVfs, scoping faults to one client via
// `path_pattern`.
#ifndef FSYNC_STORE_VFS_FAULT_H_
#define FSYNC_STORE_VFS_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fsync/store/vfs.h"

namespace fsx::store {

inline constexpr uint64_t kNoByteBudget = ~uint64_t{0};

/// One fault rule. All conditions are ANDed; a rule with every field at
/// its default matches every op and never fires.
struct DiskFaultRule {
  std::string path_pattern;  // substring of the op's path; empty = all
  uint64_t op_mask = ~uint64_t{0};  // bit per VfsOp (1u << op)
  int64_t fail_at_op = -1;   // fail the Nth matching op (0-based); -1 = off
  int fail_errno = 5;        // EIO; the injected errno for fail_at_op
  bool sticky = false;       // keep failing after the first injection
  uint64_t enospc_after_bytes = kNoByteBudget;  // write budget, then ENOSPC
  bool fsync_stale = false;  // one-shot fsyncgate failure (see above)
};

inline constexpr uint64_t VfsOpBit(VfsOp op) {
  return uint64_t{1} << static_cast<int>(op);
}

class FaultVfs : public Vfs {
 public:
  /// Wraps `base` (RealVfsInstance() when null).
  explicit FaultVfs(Vfs* base = nullptr);

  /// Returns the rule's index, for RuleOpsSeen.
  size_t AddRule(DiskFaultRule rule);
  void ClearRules();

  /// Ops observed / faults injected since construction (all rules).
  uint64_t ops_seen() const;
  uint64_t faults_injected() const;
  /// Matching ops rule `index` has observed — with fail_at_op = -1 this
  /// is the sweep harness's op-count probe.
  uint64_t RuleOpsSeen(size_t index) const;

  StatusOr<std::unique_ptr<VfsFile>> Open(const std::filesystem::path& path,
                                          OpenMode mode) override;
  Status Rename(const std::filesystem::path& from,
                const std::filesystem::path& to) override;
  StatusOr<bool> Unlink(const std::filesystem::path& path) override;
  Status Mkdir(const std::filesystem::path& path) override;
  Status FsyncPath(const std::filesystem::path& path) override;

 private:
  friend class FaultVfsFile;

  struct RuleState {
    DiskFaultRule rule;
    uint64_t seen = 0;           // matching ops observed
    uint64_t bytes_written = 0;  // matching write bytes that succeeded
    bool fired = false;          // a non-sticky fault already injected
  };

  struct Verdict {
    Status status;            // non-OK: the injected fault
    bool fsync_stale = false; // the fault is a stale-restoring fsync fail
  };

  /// Consults the rules for one op. `write_bytes` is the byte count of
  /// a write-class op (budget accounting), 0 otherwise.
  Verdict Check(VfsOp op, const std::filesystem::path& path,
                uint64_t write_bytes);
  void RecordWrite(const std::filesystem::path& path, uint64_t bytes);
  bool AnyStaleRuleArmed() const;

  Vfs* base_;
  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
  uint64_t ops_seen_ = 0;
  uint64_t faults_injected_ = 0;
};

/// Arms a process-global FaultVfs from the FSX_DISK_FAULT environment
/// variable (mirroring FSX_CRASH_AT for the kill-point harness) so the
/// CLI smoke tests can inject disk faults without a test binary.
/// Grammar: comma-separated key[=value] pairs —
///   enospc-after=K   ENOSPC once K bytes have been written
///   fail-op=N        fail the Nth vfs op
///   errno=eio|enospc|eacces   errno for fail-op (default eio)
///   fsync-fail       one-shot failed fsync with stale-read semantics
///   pattern=SUBSTR   scope every rule to paths containing SUBSTR
///   sticky           keep failing after the first injection
/// Returns true when a fault was armed.
bool ArmDiskFaultFromEnv();

}  // namespace fsx::store

#endif  // FSYNC_STORE_VFS_FAULT_H_
