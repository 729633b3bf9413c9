#include "fsync/store/vfs_fault.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

namespace fsx::store {

namespace fs = std::filesystem;

namespace {

bool IsFsyncOp(VfsOp op) {
  return op == VfsOp::kFsync || op == VfsOp::kFsyncPath;
}

/// Fault statuses for fsync carry the same "the data itself is suspect"
/// upgrade RealVfs applies: EIO on fsync is DataLoss, not Unavailable.
Status UpgradeForFsync(Status s, VfsOp op) {
  if (IsFsyncOp(op) && s.code() == StatusCode::kUnavailable) {
    return Status::DataLoss(s.message());
  }
  return s;
}

}  // namespace

class FaultVfsFile : public VfsFile {
 public:
  FaultVfsFile(fs::path path, std::unique_ptr<VfsFile> inner,
               FaultVfs* owner, bool track_stale,
               std::optional<Bytes> snapshot)
      : VfsFile(std::move(path)),
        inner_(std::move(inner)),
        owner_(owner),
        track_stale_(track_stale),
        snapshot_(std::move(snapshot)) {}
  ~FaultVfsFile() override { (void)Close(); }

  StatusOr<size_t> Read(void* buf, size_t n) override {
    FaultVfs::Verdict v = owner_->Check(VfsOp::kRead, path_, 0);
    if (!v.status.ok()) {
      return v.status;
    }
    return inner_->Read(buf, n);
  }

  StatusOr<size_t> Write(const void* buf, size_t n) override {
    FaultVfs::Verdict v = owner_->Check(VfsOp::kWrite, path_, n);
    if (!v.status.ok()) {
      return v.status;
    }
    StatusOr<size_t> w = inner_->Write(buf, n);
    if (w.ok()) {
      owner_->RecordWrite(path_, *w);
    }
    return w;
  }

  Status Fsync() override {
    FaultVfs::Verdict v = owner_->Check(VfsOp::kFsync, path_, 0);
    if (v.fsync_stale) {
      // fsyncgate: the kernel reported the failure AND quietly dropped
      // the dirty pages. Model the drop by restoring the file to its
      // content as of the last successful fsync (or open), so every
      // later reader — the seam-bypassing mmap paths included —
      // observes the stale bytes.
      RestoreSnapshot();
      GlobalVfsCounters().fsync_failures.fetch_add(
          1, std::memory_order_relaxed);
      return v.status;
    }
    if (!v.status.ok()) {
      GlobalVfsCounters().fsync_failures.fetch_add(
          1, std::memory_order_relaxed);
      return v.status;
    }
    Status s = inner_->Fsync();
    if (s.ok() && track_stale_) {
      RefreshSnapshot();
    }
    return s;
  }

  Status Close() override { return inner_->Close(); }

 private:
  void RestoreSnapshot() {
    // Best effort, through the base vfs so the restore itself cannot
    // recurse into the fault rules.
    if (snapshot_.has_value()) {
      auto f = owner_->base_->Open(path_, OpenMode::kTruncate);
      if (f.ok()) {
        (void)WriteFully(**f, *snapshot_);
        (void)(*f)->Close();
      }
    } else {
      (void)owner_->base_->Unlink(path_);
    }
  }

  void RefreshSnapshot() {
    auto now = ReadFileViaVfs(*owner_->base_, path_);
    if (now.ok()) {
      snapshot_ = std::move(*now);
    }
  }

  std::unique_ptr<VfsFile> inner_;
  FaultVfs* owner_;
  bool track_stale_;
  std::optional<Bytes> snapshot_;  // nullopt: the file did not exist
};

FaultVfs::FaultVfs(Vfs* base)
    : base_(base != nullptr ? base : &RealVfsInstance()) {}

size_t FaultVfs::AddRule(DiskFaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(RuleState{std::move(rule)});
  return rules_.size() - 1;
}

void FaultVfs::ClearRules() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
}

uint64_t FaultVfs::ops_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_seen_;
}

uint64_t FaultVfs::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

uint64_t FaultVfs::RuleOpsSeen(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < rules_.size() ? rules_[index].seen : 0;
}

bool FaultVfs::AnyStaleRuleArmed() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& rs : rules_) {
    if (rs.rule.fsync_stale && !rs.fired) {
      return true;
    }
  }
  return false;
}

FaultVfs::Verdict FaultVfs::Check(VfsOp op, const fs::path& path,
                                  uint64_t write_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++ops_seen_;
  const std::string path_str = path.string();
  Verdict verdict;
  for (RuleState& rs : rules_) {
    const DiskFaultRule& rule = rs.rule;
    if ((rule.op_mask & VfsOpBit(op)) == 0) {
      continue;
    }
    if (!rule.path_pattern.empty() &&
        path_str.find(rule.path_pattern) == std::string::npos) {
      continue;
    }
    const uint64_t index = rs.seen++;
    if (!verdict.status.ok()) {
      continue;  // an earlier rule already fired; keep counts exact
    }
    if (rule.fsync_stale && op == VfsOp::kFsync && !rs.fired) {
      rs.fired = true;
      ++faults_injected_;
      GlobalVfsCounters().faults_injected.fetch_add(
          1, std::memory_order_relaxed);
      verdict.fsync_stale = true;
      verdict.status = Status::DataLoss(
          "injected fsync failure on " + path_str +
          " (dirty pages dropped; content is stale)");
      continue;
    }
    if (rule.enospc_after_bytes != kNoByteBudget &&
        op == VfsOp::kWrite &&
        rs.bytes_written + write_bytes > rule.enospc_after_bytes) {
      ++faults_injected_;
      GlobalVfsCounters().faults_injected.fetch_add(
          1, std::memory_order_relaxed);
      verdict.status = ErrnoToStatus(
          ENOSPC, std::string("injected disk-full: ") + VfsOpName(op) +
                      " " + path_str);
      continue;
    }
    bool nth_op = rule.fail_at_op >= 0 &&
                  index == static_cast<uint64_t>(rule.fail_at_op);
    bool sticky_repeat = rule.sticky && rs.fired && rule.fail_at_op >= 0;
    if (nth_op || sticky_repeat) {
      rs.fired = true;
      ++faults_injected_;
      GlobalVfsCounters().faults_injected.fetch_add(
          1, std::memory_order_relaxed);
      verdict.status = UpgradeForFsync(
          ErrnoToStatus(rule.fail_errno,
                        std::string("injected fault: ") + VfsOpName(op) +
                            " " + path_str),
          op);
    }
  }
  return verdict;
}

void FaultVfs::RecordWrite(const fs::path& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path_str = path.string();
  for (RuleState& rs : rules_) {
    const DiskFaultRule& rule = rs.rule;
    if (rule.enospc_after_bytes == kNoByteBudget) {
      continue;
    }
    if (!rule.path_pattern.empty() &&
        path_str.find(rule.path_pattern) == std::string::npos) {
      continue;
    }
    rs.bytes_written += bytes;
  }
}

StatusOr<std::unique_ptr<VfsFile>> FaultVfs::Open(const fs::path& path,
                                                  OpenMode mode) {
  // Snapshot before the open: OpenMode::kTruncate clobbers the file,
  // and the stale restore must reproduce the pre-open content.
  bool track_stale = false;
  std::optional<Bytes> snapshot;
  if (mode != OpenMode::kRead && AnyStaleRuleArmed()) {
    track_stale = true;
    auto prev = ReadFileViaVfs(*base_, path);
    if (prev.ok()) {
      snapshot = std::move(*prev);
    }
  }
  Verdict v = Check(VfsOp::kOpen, path, 0);
  if (!v.status.ok()) {
    return v.status;
  }
  FSYNC_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> inner,
                         base_->Open(path, mode));
  return std::unique_ptr<VfsFile>(new FaultVfsFile(
      path, std::move(inner), this, track_stale, std::move(snapshot)));
}

Status FaultVfs::Rename(const fs::path& from, const fs::path& to) {
  Verdict v = Check(VfsOp::kRename, to, 0);
  if (!v.status.ok()) {
    return v.status;
  }
  return base_->Rename(from, to);
}

StatusOr<bool> FaultVfs::Unlink(const fs::path& path) {
  Verdict v = Check(VfsOp::kUnlink, path, 0);
  if (!v.status.ok()) {
    return v.status;
  }
  return base_->Unlink(path);
}

Status FaultVfs::Mkdir(const fs::path& path) {
  Verdict v = Check(VfsOp::kMkdir, path, 0);
  if (!v.status.ok()) {
    return v.status;
  }
  return base_->Mkdir(path);
}

Status FaultVfs::FsyncPath(const fs::path& path) {
  Verdict v = Check(VfsOp::kFsyncPath, path, 0);
  if (!v.status.ok()) {
    GlobalVfsCounters().fsync_failures.fetch_add(1,
                                                 std::memory_order_relaxed);
    return v.status;
  }
  return base_->FsyncPath(path);
}

bool ArmDiskFaultFromEnv() {
  const char* env = std::getenv("FSX_DISK_FAULT");
  if (env == nullptr || *env == '\0') {
    return false;
  }
  DiskFaultRule rule;
  bool actionable = false;
  std::string spec(env);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    size_t eq = tok.find('=');
    std::string key = tok.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (key == "enospc-after") {
      rule.enospc_after_bytes = std::strtoull(value.c_str(), nullptr, 10);
      actionable = true;
    } else if (key == "fail-op") {
      rule.fail_at_op =
          static_cast<int64_t>(std::strtoll(value.c_str(), nullptr, 10));
      actionable = true;
    } else if (key == "errno") {
      if (value == "enospc") {
        rule.fail_errno = ENOSPC;
      } else if (value == "eacces") {
        rule.fail_errno = EACCES;
      } else if (value == "erofs") {
        rule.fail_errno = EROFS;
      } else {
        rule.fail_errno = EIO;
      }
    } else if (key == "fsync-fail") {
      rule.fsync_stale = true;
      actionable = true;
    } else if (key == "pattern") {
      rule.path_pattern = value;
    } else if (key == "sticky") {
      rule.sticky = true;
    }
  }
  if (!actionable) {
    return false;
  }
  // Process-lifetime injector: armed once at startup, never torn down
  // (mirrors the crashpoint env arming).
  static FaultVfs* fault = new FaultVfs();
  fault->AddRule(rule);
  SetCurrentVfs(fault);
  return true;
}

}  // namespace fsx::store
