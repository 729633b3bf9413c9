#include "fsync/reconcile/merkle.h"

#include <algorithm>
#include <utility>

#include "fsync/reconcile/trie.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Codec for the fingerprint-only protocol. The wire format (leaf entry =
// varint name length, name bytes, raw 16-byte fingerprint) and the node
// hash preimage are byte-identical to the original monolithic
// implementation, so transcripts pinned before the trie core was factored
// out stay valid.
struct FingerprintCodec {
  static void AppendMeta(Bytes& out, const ManifestEntry& e) {
    Append(out, e.fingerprint);
  }
  static void WriteMeta(BitWriter& w, const ManifestEntry& e) {
    w.WriteBytes(ByteSpan(e.fingerprint.data(), e.fingerprint.size()));
  }
  static StatusOr<ManifestEntry> ReadMeta(BitReader& r) {
    FSYNC_ASSIGN_OR_RETURN(Bytes fp_bytes, r.ReadBytes(16));
    ManifestEntry e;
    std::copy(fp_bytes.begin(), fp_bytes.end(), e.fingerprint.begin());
    return e;
  }
  static bool Same(const ManifestEntry& a, const ManifestEntry& b) {
    return a.fingerprint == b.fingerprint;
  }
};

}  // namespace

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
      auto diff,
      reconcile_internal::TrieReconcile<FingerprintCodec>(
          client_files, server_files, params.node_hash_bytes,
          params.leaf_batch, params.descend_levels, channel, obs,
          obs::Phase::kCandidates, obs::Phase::kLiterals));
  ReconcileResult result;
  result.stale = std::move(diff.stale);
  result.extra = std::move(diff.extra);
  result.rounds = diff.rounds;
  result.stats = diff.stats;
  return result;
}

}  // namespace fsx
