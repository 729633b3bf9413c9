#include "fsync/reconcile/manifest.h"

#include <algorithm>
#include <utility>

#include "fsync/reconcile/trie.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Codec for the manifest protocol. Leaf entry wire form: varint name
// length, name bytes, raw 16-byte fingerprint, varint size, varint mode
// (see docs/PROTOCOL.md, "Manifest reconciliation"). The node hash covers the
// same fields in fixed-width little-endian form.
struct ManifestEntryCodec {
  static void AppendMeta(Bytes& out, const ManifestEntry& e) {
    Append(out, e.fingerprint);
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<uint8_t>(e.size >> (8 * i)));
    }
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(e.mode >> (8 * i)));
    }
  }
  static void WriteMeta(BitWriter& w, const ManifestEntry& e) {
    w.WriteBytes(ByteSpan(e.fingerprint.data(), e.fingerprint.size()));
    w.WriteVarint(e.size);
    w.WriteVarint(e.mode);
  }
  static StatusOr<ManifestEntry> ReadMeta(BitReader& r) {
    ManifestEntry e;
    FSYNC_ASSIGN_OR_RETURN(Bytes fp_bytes, r.ReadBytes(16));
    std::copy(fp_bytes.begin(), fp_bytes.end(), e.fingerprint.begin());
    FSYNC_ASSIGN_OR_RETURN(e.size, r.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(uint64_t mode, r.ReadVarint());
    if (mode > 0777) {
      return Status::DataLoss("manifest: implausible mode bits");
    }
    e.mode = static_cast<uint32_t>(mode);
    return e;
  }
  static bool Same(const ManifestEntry& a, const ManifestEntry& b) {
    return a == b;
  }
};

}  // namespace

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
                                         const MerkleParams& params,
                                         SimulatedChannel& channel,
                                         obs::SyncObserver* obs) {
  ObservedSession scope(channel, obs, "manifest");
  FSYNC_ASSIGN_OR_RETURN(
      auto walk,
      reconcile_internal::TrieReconcile<ManifestEntryCodec>(
          client, server, params.node_hash_bytes, params.leaf_batch,
          params.descend_levels, channel, obs, obs::Phase::kManifest,
          obs::Phase::kManifest));
  ManifestDiff diff;
  diff.stale = std::move(walk.stale);
  diff.stale_entries = std::move(walk.stale_entries);
  diff.extra = std::move(walk.extra);
  diff.stats = walk.stats;
  diff.rounds = walk.rounds;
  DetectAdoptions(client, diff);
  return diff;
}

}  // namespace fsx
