#include "fsync/reconcile/merkle.h"

#include <utility>

#include "fsync/reconcile/trie.h"

namespace fsx {

uint64_t FullExchangeBytes(const Manifest& client_files) {
  uint64_t total = 0;
  for (const auto& [name, entry] : client_files) {
    total += 16 + name.size() + 1;
  }
  return total;
}

StatusOr<ReconcileResult> MerkleReconcile(const Manifest& client_files,
                                          const Manifest& server_files,
                                          const MerkleParams& params,
                                          SimulatedChannel& channel,
                                          obs::SyncObserver* obs) {
  ObservedSession scope(channel, obs, "merkle");
  FSYNC_ASSIGN_OR_RETURN(
      ManifestDiff diff,
      reconcile_internal::RunTrieWalk<reconcile_internal::FingerprintCodec>(
          client_files, server_files, params, channel, obs,
          obs::Phase::kCandidates, obs::Phase::kLiterals));
  ReconcileResult result;
  result.stale = std::move(diff.stale);
  result.extra = std::move(diff.extra);
  result.rounds = diff.rounds;
  result.stats = diff.stats;
  return result;
}

}  // namespace fsx
