#include "fsync/reconcile/manifest.h"

#include <algorithm>
#include <utility>

#include "fsync/reconcile/trie.h"

namespace fsx {

Manifest BuildManifest(const std::map<std::string, Bytes>& files,
                       int num_threads) {
  const std::vector<Fingerprint> fps = FileFingerprints(files, num_threads);
  Manifest out;
  size_t i = 0;
  for (const auto& [name, data] : files) {
    out.emplace_hint(out.end(), name, ManifestEntry{fps[i++], data.size()});
  }
  return out;
}

void DetectAdoptions(const Manifest& client, ManifestDiff& diff) {
  // Content key -> lexicographically smallest client path holding it,
  // for just the keys some stale path asks for. std::map iteration over
  // `client` is already in path order, so the first match per key wins
  // and the choice is deterministic.
  std::map<std::pair<Fingerprint, uint64_t>, const Manifest::value_type*>
      by_content;
  for (const std::string& path : diff.stale) {
    const ManifestEntry& want = diff.stale_entries.at(path);
    by_content.emplace(std::make_pair(want.fingerprint, want.size), nullptr);
  }
  for (const auto& kv : client) {
    auto it = by_content.find(
        std::make_pair(kv.second.fingerprint, kv.second.size));
    if (it != by_content.end() && it->second == nullptr) {
      it->second = &kv;
    }
  }
  std::vector<std::string> residual;
  residual.reserve(diff.stale.size());
  for (std::string& path : diff.stale) {
    const ManifestEntry& want = diff.stale_entries.at(path);
    const Manifest::value_type* source =
        by_content.at(std::make_pair(want.fingerprint, want.size));
    if (source != nullptr && source->second.mode == want.mode) {
      diff.adopts.push_back(AdoptOp{std::move(path), source->first});
    } else {
      residual.push_back(std::move(path));
    }
  }
  diff.stale = std::move(residual);
}

StatusOr<ManifestDiff> ManifestReconcile(const Manifest& client,
                                         const Manifest& server,
                                         SimulatedChannel& channel,
                                         obs::SyncObserver* obs) {
  ObservedSession scope(channel, obs, "manifest");
  const TrafficStats before = channel.stats();
  reconcile_internal::TrieClient walk_client(client);
  const reconcile_internal::TrieSide side =
      reconcile_internal::BuildSide(server);
  reconcile_internal::TrieServer walk_server(side);
  FSYNC_RETURN_IF_ERROR(
      reconcile_internal::PumpWalk(walk_client, walk_server, channel, obs));
  ManifestDiff diff = std::move(walk_client.diff());
  diff.stats = TrafficSince(before, channel.stats());
  DetectAdoptions(client, diff);
  return diff;
}

}  // namespace fsx
