#include "fsync/core/tree_session.h"

#include <chrono>
#include <utility>
#include <vector>

#include "fsync/compress/codec.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Stream-compresses `data`, memoized under its content fingerprint (the
// compressed payload is a pure function of the bytes, so the key needs
// nothing else). In a fan-out every client's bundle re-compresses the
// same files.
Bytes CachedCompress(cache::SyncCache* cache, const Fingerprint& fp,
                     ByteSpan data, obs::SyncObserver* obs) {
  if (cache == nullptr) {
    return Compress(data);
  }
  const cache::CacheKey key = cache::ContentKey(fp, /*tag=*/0);
  if (std::optional<cache::SyncCache::Hit> hit = cache->Get(key, obs)) {
    return std::move(hit->payload);
  }
  const auto start = std::chrono::steady_clock::now();
  Bytes comp = Compress(data);
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  cache->Put(key, comp, {}, ns, obs);
  return comp;
}

}  // namespace

TreeSnapshot::TreeSnapshot(const Collection& tree,
                           const TreeSyncParams& params)
    : tree(tree),
      params(params),
      manifest(BuildManifest(tree, params.config.num_threads)),
      side(reconcile_internal::BuildSide(manifest)) {}

TreeSyncServer::TreeSyncServer(const TreeSnapshot& snapshot,
                               obs::SyncObserver* obs)
    : snapshot_(snapshot),
      obs_(obs),
      walk_(snapshot.side) {}

StatusOr<Bytes> TreeSyncServer::OnWalk(ByteSpan ask) {
  if (planned_) {
    return Status::DataLoss("tree sync: walk ask after the plan");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes reply, walk_.OnWalk(ask));
  walked_ = true;
  return reply;
}

StatusOr<Bytes> TreeSyncServer::OnPlan(ByteSpan plan) {
  if (!walked_ || planned_) {
    return Status::DataLoss("tree sync: one plan, after the walk");
  }
  planned_ = true;
  const Collection& tree = snapshot_.tree;
  BitReader in(plan);
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_want, in.ReadVarint());
  if (n_want > plan.size()) {
    return Status::DataLoss("tree sync: implausible plan size");
  }
  BitWriter bundle;
  const std::string* prev = nullptr;
  for (uint64_t i = 0; i < n_want; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(Bytes name_bytes, in.ReadBytes(len));
    auto it = tree.find(ToString(name_bytes));
    if (it == tree.end()) {
      return Status::DataLoss("tree sync: unknown path in plan");
    }
    if (prev != nullptr && !(*prev < it->first)) {
      return Status::DataLoss("tree sync: plan paths not ascending");
    }
    prev = &it->first;
    if (it->second.size() <= snapshot_.params.small_file_threshold) {
      Bytes comp = CachedCompress(snapshot_.params.cache,
                                  snapshot_.manifest.at(it->first).fingerprint,
                                  it->second, obs_);
      bundle.WriteVarint(comp.size());
      bundle.WriteBytes(comp);
    }
  }
  return bundle.Finish();
}

TreeSyncClient::TreeSyncClient(const Collection& local,
                               const TreeSyncParams& params,
                               obs::SyncObserver* obs)
    : local_(local),
      small_file_threshold_(params.small_file_threshold),
      obs_(obs),
      manifest_(BuildManifest(local, params.config.num_threads)),
      walk_(manifest_) {}

StatusOr<std::optional<Bytes>> TreeSyncClient::OnWalkReply(ByteSpan reply) {
  FSYNC_ASSIGN_OR_RETURN(std::optional<Bytes> ask, walk_.OnWalkReply(reply));
  if (ask.has_value()) {
    return ask;
  }
  ManifestDiff& diff = walk_.diff();
  DetectAdoptions(manifest_, diff);
  result_.manifest_rounds = diff.rounds;

  // Mirror semantics, applied locally: drop client-only files and every
  // path the server holds differently, then adopt content the client
  // already holds under another path (zero wire bytes past the walk).
  Collection& replica = result_.reconstructed;
  replica = local_;
  for (const std::string& path : diff.extra) {
    replica.erase(path);
  }
  auto drop = [&](const std::string& path) {
    if (replica.erase(path) == 0) {
      ++result_.files_new;
    }
  };
  for (const std::string& path : diff.stale) {
    drop(path);
    // Both sides split the residual stale set by the server-side size,
    // which the walk already delivered.
    (diff.stale_entries.at(path).size <= small_file_threshold_ ? small_
                                                               : large_)
        .push_back(path);
  }
  for (const AdoptOp& op : diff.adopts) {
    drop(op.path);
  }
  result_.files_unchanged = replica.size();
  for (const AdoptOp& op : diff.adopts) {
    replica[op.path] = local_.at(op.from);
    obs::AddEvent(obs_, obs::Event::kRenameAdopted);
  }
  result_.files_adopted = diff.adopts.size();
  result_.files_small = small_.size();
  result_.files_sessioned = large_.size();
  result_.files_total =
      result_.files_unchanged + diff.adopts.size() + diff.stale.size();
  return ask;
}

std::optional<Bytes> TreeSyncClient::Plan() const {
  const std::vector<std::string>& stale = walk_.diff().stale;
  if (stale.empty()) {
    return std::nullopt;
  }
  BitWriter plan;
  plan.WriteVarint(stale.size());
  for (const std::string& path : stale) {
    plan.WriteVarint(path.size());
    plan.WriteBytes(AsBytes(path));
  }
  return plan.Finish();
}

Status TreeSyncClient::OnBundle(ByteSpan bundle) {
  const ManifestDiff& diff = walk_.diff();
  BitReader in(bundle);
  std::vector<Bytes> files;
  files.reserve(small_.size());
  for (size_t i = 0; i < small_.size(); ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(Bytes comp, in.ReadBytes(len));
    FSYNC_ASSIGN_OR_RETURN(Bytes data, Decompress(comp));
    files.push_back(std::move(data));
  }
  // Every file checked against the fingerprint the walk delivered, in
  // one batched pass.
  std::vector<ByteSpan> spans(files.begin(), files.end());
  std::vector<Fingerprint> fps(files.size());
  Md5Batch(spans.data(), spans.size(), fps.data());
  for (size_t i = 0; i < small_.size(); ++i) {
    if (fps[i] != diff.stale_entries.at(small_[i]).fingerprint) {
      return Status::DataLoss("tree sync: small-file batch mismatch");
    }
  }
  for (size_t i = 0; i < small_.size(); ++i) {
    result_.reconstructed[small_[i]] = std::move(files[i]);
    obs::AddEvent(obs_, obs::Event::kSmallFileBatched);
  }
  return Status::Ok();
}

}  // namespace fsx
