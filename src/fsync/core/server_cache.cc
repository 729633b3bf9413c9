#include "fsync/core/server_cache.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "fsync/core/checkpoint.h"
#include "fsync/hash/md5.h"

namespace fsx {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Meta word layout (see SyncCache::Meta): flags, delta payload bytes,
// repair bad regions, rounds executed.
constexpr uint64_t kFlagDone = 1u << 0;
constexpr uint64_t kFlagResumed = 1u << 1;
constexpr uint64_t kFlagRepairFull = 1u << 2;

}  // namespace

CachedServerEndpoint::CachedServerEndpoint(ByteSpan f_new,
                                           const SyncConfig& config,
                                           cache::SyncCache* cache,
                                           obs::SyncObserver* obs,
                                           const Fingerprint* fp_new_hint)
    : f_new_(f_new),
      config_(config),
      cache_(cache),
      obs_(obs),
      config_digest_(ConfigWireDigest(config)) {
  if (fp_new_hint != nullptr) {
    fp_new_ = *fp_new_hint;
  }
}

bool CachedServerEndpoint::done() const {
  return live_ != nullptr ? live_->done() : done_;
}

int CachedServerEndpoint::rounds_executed() const {
  return live_ != nullptr ? live_->rounds_executed() : rounds_executed_;
}

uint64_t CachedServerEndpoint::delta_payload_bytes() const {
  return live_ != nullptr ? live_->delta_payload_bytes()
                          : delta_payload_bytes_;
}

bool CachedServerEndpoint::resumed() const {
  return live_ != nullptr ? live_->resumed() : resumed_;
}

bool CachedServerEndpoint::repair_used_full() const {
  return live_ != nullptr ? live_->repair_used_full() : repair_used_full_;
}

uint32_t CachedServerEndpoint::repair_bad_regions() const {
  return live_ != nullptr ? live_->repair_bad_regions()
                          : repair_bad_regions_;
}

StatusOr<Bytes> CachedServerEndpoint::Handle(SessionMsg kind, ByteSpan msg) {
  if (kind == SessionMsg::kFallbackRequest) {
    msg = ByteSpan();  // the ask carries no content; chain it as empty
  }
  AdvanceChain(kind, msg);
  if (live_ != nullptr) {
    return CallLive(kind, msg);
  }
  if (cache_ != nullptr) {
    std::optional<cache::SyncCache::Hit> hit =
        cache_->Get(ChainKey(), obs_);
    if (hit.has_value()) {
      MirrorFromMeta(hit->meta);
      history_.push_back(Incoming{kind, Bytes(msg.begin(), msg.end())});
      return std::move(hit->payload);
    }
  }
  FSYNC_RETURN_IF_ERROR(EnsureLive());
  return CallLive(kind, msg);
}

StatusOr<Bytes> CachedServerEndpoint::CallLive(SessionMsg kind,
                                               ByteSpan msg) {
  const uint64_t start = NowNs();
  StatusOr<Bytes> reply = live_->Handle(kind, msg);
  const uint64_t elapsed = NowNs() - start;
  server_cpu_ns_ += elapsed;
  if (reply.ok() && cache_ != nullptr) {
    cache_->Put(ChainKey(), reply.value(), MetaFromLive(), elapsed, obs_);
  }
  return reply;
}

Status CachedServerEndpoint::EnsureLive() {
  const uint64_t start = NowNs();
  // The target's fingerprint, when already known (a hint, or the cache
  // key), spares the live endpoint hashing F_new again.
  live_ = std::make_unique<SyncServerEndpoint>(
      f_new_, config_, fp_new_.has_value() ? &*fp_new_ : nullptr);
  // Replay the buffered incoming history to bring the fresh endpoint to
  // the state the cached prefix already advertised. The replies are
  // recomputations of cached payloads and are discarded.
  for (const Incoming& in : history_) {
    FSYNC_RETURN_IF_ERROR(live_->Handle(in.kind, in.msg).status());
  }
  history_.clear();
  history_.shrink_to_fit();
  server_cpu_ns_ += NowNs() - start;
  return Status::Ok();
}

void CachedServerEndpoint::AdvanceChain(SessionMsg kind, ByteSpan msg) {
  if (cache_ == nullptr && live_ != nullptr) {
    return;  // nothing will ever read the chain
  }
  Md5 hasher;
  hasher.Update(ByteSpan(chain_.data(), chain_.size()));
  const uint8_t k = static_cast<uint8_t>(kind);
  hasher.Update(ByteSpan(&k, 1));
  uint64_t len = msg.size();
  hasher.Update(ByteSpan(reinterpret_cast<const uint8_t*>(&len),
                         sizeof(len)));
  hasher.Update(msg);
  chain_ = hasher.Finish();
}

const Fingerprint& CachedServerEndpoint::TargetFingerprint() {
  if (!fp_new_.has_value()) {
    const uint64_t start = NowNs();
    fp_new_ = FileFingerprint(f_new_);
    server_cpu_ns_ += NowNs() - start;
  }
  return *fp_new_;
}

cache::CacheKey CachedServerEndpoint::ChainKey() {
  uint64_t lo = 0;
  uint64_t hi = 0;
  std::memcpy(&lo, chain_.data(), sizeof(lo));
  std::memcpy(&hi, chain_.data() + sizeof(lo), sizeof(hi));
  return cache::TranscriptKey(TargetFingerprint(), config_digest_, lo, hi);
}

void CachedServerEndpoint::MirrorFromMeta(
    const cache::SyncCache::Meta& meta) {
  done_ = (meta[0] & kFlagDone) != 0;
  resumed_ = (meta[0] & kFlagResumed) != 0;
  repair_used_full_ = (meta[0] & kFlagRepairFull) != 0;
  delta_payload_bytes_ = meta[1];
  repair_bad_regions_ = static_cast<uint32_t>(meta[2]);
  rounds_executed_ = static_cast<int>(meta[3]);
}

cache::SyncCache::Meta CachedServerEndpoint::MetaFromLive() const {
  cache::SyncCache::Meta meta{};
  meta[0] = (live_->done() ? kFlagDone : 0) |
            (live_->resumed() ? kFlagResumed : 0) |
            (live_->repair_used_full() ? kFlagRepairFull : 0);
  meta[1] = live_->delta_payload_bytes();
  meta[2] = live_->repair_bad_regions();
  meta[3] = static_cast<uint64_t>(live_->rounds_executed());
  return meta;
}

}  // namespace fsx
