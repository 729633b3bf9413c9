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
  using Meta = Fingerprint;
  static void AppendMeta(Bytes& out, const Fingerprint& fp) {
    Append(out, fp);
  }
  static void WriteMeta(BitWriter& w, const Fingerprint& fp) {
    w.WriteBytes(ByteSpan(fp.data(), fp.size()));
  }
  static StatusOr<Fingerprint> ReadMeta(BitReader& r) {
    FSYNC_ASSIGN_OR_RETURN(Bytes fp_bytes, r.ReadBytes(16));
    Fingerprint fp;
    std::copy(fp_bytes.begin(), fp_bytes.end(), fp.begin());
    return fp;
  }
};

}  // namespace

FileDigestMap DigestCollection(const std::map<std::string, Bytes>& files) {
  const std::vector<Fingerprint> fps = FileFingerprints(files);
  FileDigestMap out;
  size_t i = 0;
  for (const auto& kv : files) {
    out.emplace_hint(out.end(), kv.first, fps[i++]);
  }
  return out;
}

uint64_t FullExchangeBytes(const FileDigestMap& client_files) {
  uint64_t total = 0;
  for (const auto& [name, fp] : client_files) {
    total += 16 + name.size() + 1;
  }
  return total;
}

StatusOr<ReconcileResult> MerkleReconcile(const FileDigestMap& client_files,
                                          const FileDigestMap& server_files,
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
  result.stats = channel.stats();
  return result;
}

}  // namespace fsx
