// CachedServerEndpoint: a drop-in stand-in for SyncServerEndpoint that
// memoizes every server response in a shared content-addressed cache
// (fsync/cache/sync_cache.h), so a fan-out of N clients syncing the same
// (f_old, f_new, config) computes each signature and delta once.
//
// Why this works: a SyncServerEndpoint's responses are deterministic
// functions of (f_new, config, the exact sequence of incoming messages).
// The wrapper therefore keys each response by a transcript chain — an MD5
// chained over every incoming (kind, message) pair — plus the target
// fingerprint and the wire-config digest. While every lookup hits, no
// live endpoint exists at all: the server ships cached bytes and spends
// no signature/delta CPU. On the first miss the wrapper lazily
// constructs the real endpoint, replays the buffered incoming messages
// to restore its state, and proceeds live (inserting each fresh response
// on the way out).
//
// The payloads served from cache are the byte-exact responses a live
// endpoint produced earlier, so cached and uncached sessions are wire
// bit-identical (pinned by tests/cache_conformance_test.cc).
#ifndef FSYNC_CORE_SERVER_CACHE_H_
#define FSYNC_CORE_SERVER_CACHE_H_

#include <memory>
#include <optional>
#include <vector>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/config.h"
#include "fsync/core/endpoint.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

class CachedServerEndpoint {
 public:
  /// `f_new` must outlive the endpoint (not copied). `cache` may be null,
  /// in which case the wrapper degenerates to a live endpoint that only
  /// measures server CPU. `fp_new_hint`, when the caller already knows
  /// the file's fingerprint (e.g. from the collection manifest), avoids
  /// re-fingerprinting the file per session, on the all-hit path and in
  /// the live endpoint alike.
  CachedServerEndpoint(ByteSpan f_new, const SyncConfig& config,
                       cache::SyncCache* cache,
                       obs::SyncObserver* obs = nullptr,
                       const Fingerprint* fp_new_hint = nullptr);

  /// SyncServerEndpoint::Handle, memoized.
  StatusOr<Bytes> Handle(SessionMsg kind, ByteSpan msg);

  // Endpoint state, mirrored from cache metadata on the hit path and
  // forwarded to the live endpoint otherwise.
  bool done() const;
  int rounds_executed() const;
  uint64_t delta_payload_bytes() const;
  bool resumed() const;
  bool repair_used_full() const;
  uint32_t repair_bad_regions() const;

  /// Wall time this endpoint spent in live server computation (including
  /// miss-path replay and initial fingerprinting). Hits cost hash-map
  /// lookups only, so a warm fan-out's per-client server CPU collapses
  /// toward zero; bench/fanout_sweep.cc plots exactly this number.
  uint64_t server_cpu_ns() const { return server_cpu_ns_; }

 private:
  StatusOr<Bytes> CallLive(SessionMsg kind, ByteSpan msg);
  Status EnsureLive();
  void AdvanceChain(SessionMsg kind, ByteSpan msg);
  const Fingerprint& TargetFingerprint();
  cache::CacheKey ChainKey();
  void MirrorFromMeta(const cache::SyncCache::Meta& meta);
  cache::SyncCache::Meta MetaFromLive() const;

  ByteSpan f_new_;
  const SyncConfig config_;
  cache::SyncCache* cache_;
  obs::SyncObserver* obs_;
  const uint64_t config_digest_;
  std::optional<Fingerprint> fp_new_;
  // MD5 transcript chain over all incoming messages consumed so far.
  std::array<uint8_t, 16> chain_{};
  // Incoming history, kept only while serving from cache (replayed to
  // reconstruct the live endpoint on the first miss, then dropped).
  struct Incoming {
    SessionMsg kind;
    Bytes msg;
  };
  std::vector<Incoming> history_;
  std::unique_ptr<SyncServerEndpoint> live_;
  // Mirrored endpoint state while no live endpoint exists.
  bool done_ = false;
  int rounds_executed_ = 0;
  uint64_t delta_payload_bytes_ = 0;
  bool resumed_ = false;
  bool repair_used_full_ = false;
  uint32_t repair_bad_regions_ = 0;
  uint64_t server_cpu_ns_ = 0;
};

}  // namespace fsx

#endif  // FSYNC_CORE_SERVER_CACHE_H_
