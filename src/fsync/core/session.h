// Single-file synchronization sessions: the multi-round map-construction
// protocol (Section 5.6) followed by the delta phase, run between two
// in-process endpoints over a SimulatedChannel with exact cost
// accounting. For the message-in/message-out client state machine usable
// over a real transport, see fsync/core/file_session.h.
#ifndef FSYNC_CORE_SESSION_H_
#define FSYNC_CORE_SESSION_H_

#include <functional>
#include <optional>
#include <vector>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/checkpoint.h"
#include "fsync/core/config.h"
#include "fsync/core/endpoint.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/net/channel.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Outcome and cost breakdown of one file synchronization.
struct FileSyncResult {
  Bytes reconstructed;
  TrafficStats stats;  // total session traffic (this file only)
  uint64_t map_server_to_client_bytes = 0;
  uint64_t map_client_to_server_bytes = 0;
  uint64_t delta_bytes = 0;  // phase-2 payload (server -> client)
  int rounds = 0;            // map-construction rounds executed
  std::vector<RoundTrace> trace;  // one entry per protocol sub-round
  double confirmed_fraction = 0.0;
  bool unchanged = false;  // fingerprints matched; nothing transferred
  bool fallback = false;   // reconstruction failure forced a full transfer
  // Robustness outcomes (see docs/PROTOCOL.md).
  bool resumed = false;      // the server accepted a checkpoint resume
  int resumed_rounds = 0;    // map rounds skipped thanks to the resume
  // Degradation ladder rung that finished the session: 0 = normal delta
  // reconstruction, 1 = region repair, 2 = full transfer.
  int degradation_level = 0;
  uint32_t repaired_regions = 0;  // regions patched at level 1
  // Wall time spent in live server-side computation (signatures, deltas,
  // compression). With a warm shared cache (set_server_cache) this
  // collapses toward zero; see docs/caching.md.
  uint64_t server_cpu_ns = 0;
};

/// One file synchronization between in-process endpoints, with optional
/// resume-from-checkpoint and round-granular checkpoint persistence.
/// Construct, optionally install a checkpoint / checkpoint callback, then
/// Run() once. SynchronizeFile below is the plain fire-and-forget shape.
class SyncSession {
 public:
  /// `f_old` / `f_new` must outlive the session (not copied).
  SyncSession(ByteSpan f_old, ByteSpan f_new, const SyncConfig& config)
      : f_old_(f_old), f_new_(f_new), config_(config) {}

  /// Asks Run() to resume from `cp` instead of starting fresh. An
  /// unusable checkpoint (stale files, config drift, corrupt logs) is
  /// silently ignored — the session starts fresh, never fails.
  void set_resume_checkpoint(SessionCheckpoint cp) {
    resume_cp_ = std::move(cp);
  }

  /// Installs a persistence hook, invoked after every newly completed
  /// map-construction round with the up-to-date checkpoint. Keep it
  /// cheap; it runs inside the protocol loop.
  void set_checkpoint_fn(std::function<void(const SessionCheckpoint&)> fn) {
    checkpoint_fn_ = std::move(fn);
  }

  /// Installs a shared server-side response cache (may be null). Caching
  /// is server-local memoization: it never changes a wire byte (pinned by
  /// the `cache` conformance suite), only skips recomputation when many
  /// sessions sync the same (f_old, f_new, config). The cache must
  /// outlive Run() and may be shared across concurrent sessions.
  void set_server_cache(cache::SyncCache* cache) { server_cache_ = cache; }

  /// Tells the server side the fingerprint of `f_new` up front (e.g. from
  /// a collection manifest), so the warm-cache path need not re-hash the
  /// file per session. Purely a server-local shortcut.
  void set_server_fingerprint_hint(const Fingerprint& fp) {
    fp_new_hint_ = fp;
  }

  /// Runs the protocol to completion over `channel`. See SynchronizeFile
  /// for the contract; additionally fills the resume/degradation fields
  /// of FileSyncResult and fires the checkpoint hook.
  StatusOr<FileSyncResult> Run(SimulatedChannel& channel,
                               obs::SyncObserver* obs = nullptr);

 private:
  ByteSpan f_old_;
  ByteSpan f_new_;
  const SyncConfig config_;
  std::optional<SessionCheckpoint> resume_cp_;
  std::function<void(const SessionCheckpoint&)> checkpoint_fn_;
  cache::SyncCache* server_cache_ = nullptr;
  std::optional<Fingerprint> fp_new_hint_;
};

/// Runs the full protocol between in-process endpoints over `channel`.
/// On success the result's `reconstructed` equals `f_new` (guaranteed by
/// the fingerprint check; a detected mismatch walks the degradation
/// ladder: bounded region repair first, compressed full transfer last,
/// also through `channel`).
/// When `obs` is non-null the session additionally attributes its wire
/// traffic per phase (handshake / candidates / verification /
/// continuation / delta / fallback) and emits per-round trace events;
/// see fsync/obs/sync_obs.h. Passing nullptr costs one branch per send.
/// A non-null `cache` memoizes the server's responses across sessions
/// (see SyncSession::set_server_cache); it never changes wire bytes.
StatusOr<FileSyncResult> SynchronizeFile(ByteSpan f_old, ByteSpan f_new,
                                         const SyncConfig& config,
                                         SimulatedChannel& channel,
                                         obs::SyncObserver* obs = nullptr,
                                         cache::SyncCache* cache = nullptr);

}  // namespace fsx

#endif  // FSYNC_CORE_SESSION_H_
