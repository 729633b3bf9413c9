// Internal shared core of the hash-trie reconciliation protocols. Both
// the fingerprint-only MerkleReconcile (merkle.h) and the richer
// ManifestReconcile (manifest.h) run the same top-down walk: each side
// builds a binary trie keyed by H(name); the client probes nodes, the
// server answers with either two child hashes or the subtree's leaf
// entries, and the walk descends only where the hashes disagree. Both
// walk a Manifest; they differ only in which fields of a ManifestEntry
// an entry carries (the fingerprint alone, or all of it), so the walk
// is a template over a small codec:
//
//   struct Codec {
//     static void AppendMeta(Bytes&, const ManifestEntry&);     // node hash
//     static void WriteMeta(BitWriter&, const ManifestEntry&);  // leaf wire
//     static StatusOr<ManifestEntry> ReadMeta(BitReader&);
//     static bool Same(const ManifestEntry&, const ManifestEntry&);
//   };
//
// This header is an implementation detail of fsync/reconcile — include
// merkle.h or manifest.h instead.
#ifndef FSYNC_RECONCILE_TRIE_H_
#define FSYNC_RECONCILE_TRIE_H_

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/net/channel.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/status.h"

namespace fsx::reconcile_internal {

inline constexpr int kMaxDepth = 64;

// Salt of the trie key H(name) = Md5::HashBits(name, 64, kNameKeySalt).
inline constexpr uint64_t kNameKeySalt = 0x791E0;

// A trie node: all entries whose key starts with the high `depth` bits of
// `prefix` (prefix stored left-aligned in the high bits).
struct NodeId {
  int depth = 0;
  uint64_t prefix = 0;  // high `depth` bits meaningful
};

inline void WriteNodeId(BitWriter& w, NodeId node) {
  w.WriteBits(static_cast<uint64_t>(node.depth), 7);
  if (node.depth > 0) {
    w.WriteBits(node.prefix >> (64 - node.depth), node.depth);
  }
}

inline StatusOr<NodeId> ReadNodeId(BitReader& r) {
  NodeId node;
  FSYNC_ASSIGN_OR_RETURN(uint64_t depth, r.ReadBits(7));
  if (depth > kMaxDepth) {
    return Status::DataLoss("merkle: bad node depth");
  }
  node.depth = static_cast<int>(depth);
  if (node.depth > 0) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t p, r.ReadBits(node.depth));
    node.prefix = p << (64 - node.depth);
  }
  return node;
}

inline NodeId Child(NodeId node, int bit) {
  NodeId c;
  c.depth = node.depth + 1;
  c.prefix = node.prefix;
  if (bit) {
    c.prefix |= uint64_t{1} << (64 - c.depth);
  }
  return c;
}

/// The `idx`-th descendant of `node` exactly `levels` below it (idx runs
/// over the 2^levels subtrees in key order). Descendant(n, 1, b) ==
/// Child(n, b).
inline NodeId Descendant(NodeId node, int levels, uint64_t idx) {
  NodeId d;
  d.depth = node.depth + levels;
  d.prefix = node.prefix | (idx << (64 - d.depth));
  return d;
}

// Server reply codes per queried node.
inline constexpr uint64_t kReplyLeaves = 0;    // entry list follows
inline constexpr uint64_t kReplyChildren = 1;  // two child hashes follow
inline constexpr uint64_t kReplySame = 2;      // root only: hashes matched

// One replica entry under its 64-bit trie key H(name). `name` and
// `meta` point into the caller's manifest, which outlives the walk.
struct Entry {
  uint64_t key = 0;
  const std::string* name = nullptr;
  const ManifestEntry* meta = nullptr;
};

// One replica's side of the walk: its entries sorted by (key, name), and
// each entry's node-hash preimage (name, 0, AppendMeta) written once, in
// that order, into one buffer. The entries under a node are a contiguous
// run, so the node's hash is the MD5 of one slice of `preimage`.
struct TrieSide {
  std::vector<Entry> entries;
  Bytes preimage;
  std::vector<size_t> offsets;  // entry i is [offsets[i], offsets[i + 1])
};

template <typename Codec>
TrieSide BuildSide(const Manifest& files) {
  TrieSide side;
  std::vector<ByteSpan> names;
  names.reserve(files.size());
  size_t name_bytes = 0;
  for (const auto& kv : files) {
    names.push_back(AsBytes(kv.first));
    name_bytes += kv.first.size();
  }
  std::vector<uint64_t> keys(files.size());
  Md5HashBitsBatch(names.data(), names.size(), 64, kNameKeySalt,
                   keys.data());
  side.entries.reserve(files.size());
  size_t i = 0;
  for (const auto& [name, meta] : files) {
    side.entries.push_back({keys[i++], &name, &meta});
  }
  std::sort(side.entries.begin(), side.entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key < b.key : *a.name < *b.name;
            });
  // An entry's fixed-width hash form is never larger than the entry.
  side.preimage.reserve(name_bytes +
                        files.size() * (1 + sizeof(ManifestEntry)));
  side.offsets.reserve(files.size() + 1);
  side.offsets.push_back(0);
  for (const Entry& e : side.entries) {
    Append(side.preimage, AsBytes(*e.name));
    side.preimage.push_back(0);
    Codec::AppendMeta(side.preimage, *e.meta);
    side.offsets.push_back(side.preimage.size());
  }
  return side;
}

// Half-open range of entries under `node`.
inline std::pair<size_t, size_t> NodeRange(const std::vector<Entry>& entries,
                                           NodeId node) {
  if (node.depth == 0) {
    return {0, entries.size()};
  }
  uint64_t lo_key = node.prefix;
  uint64_t hi_key =
      node.depth == 64
          ? node.prefix
          : node.prefix | ((uint64_t{1} << (64 - node.depth)) - 1);
  auto lo = std::lower_bound(
      entries.begin(), entries.end(), lo_key,
      [](const Entry& e, uint64_t k) { return e.key < k; });
  auto hi = std::upper_bound(
      entries.begin(), entries.end(), hi_key,
      [](uint64_t k, const Entry& e) { return k < e.key; });
  return {static_cast<size_t>(lo - entries.begin()),
          static_cast<size_t>(hi - entries.begin())};
}

// The node-hash preimage of every entry under `node`.
inline ByteSpan NodePreimage(const TrieSide& side, NodeId node) {
  auto [lo, hi] = NodeRange(side.entries, node);
  return ByteSpan(side.preimage)
      .subspan(side.offsets[lo], side.offsets[hi] - side.offsets[lo]);
}

// A node hash: the low 8 * hash_bytes bits of the MD5 of its preimage.
inline uint64_t NodeHash(const TrieSide& side, NodeId node,
                         uint32_t hash_bytes) {
  return Md5::HashBits(NodePreimage(side, node), 8 * hash_bytes);
}

// NodeHash of each of the 2^levels descendants of `node`, in key order,
// hashed in one batched call.
inline std::vector<uint64_t> DescendantHashes(const TrieSide& side,
                                              NodeId node, int levels,
                                              uint32_t hash_bytes) {
  const size_t count = size_t{1} << levels;
  std::vector<ByteSpan> slices(count);
  for (size_t idx = 0; idx < count; ++idx) {
    slices[idx] = NodePreimage(side, Descendant(node, levels, idx));
  }
  std::vector<uint64_t> out(count);
  Md5HashBitsBatch(slices.data(), count, 8 * static_cast<int>(hash_bytes),
                   /*salt=*/0, out.data());
  return out;
}

template <typename Codec>
void WriteEntryList(BitWriter& w, const std::vector<Entry>& entries,
                    size_t lo, size_t hi) {
  w.WriteVarint(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    w.WriteVarint(entries[i].name->size());
    w.WriteBytes(AsBytes(*entries[i].name));
    Codec::WriteMeta(w, *entries[i].meta);
  }
}

/// What the trie walk discovered (from the client's perspective).
struct TrieDiff {
  /// Paths whose metadata differs or that only the server has, with the
  /// server-side metadata the walk delivered for them.
  std::vector<std::string> stale;
  Manifest stale_entries;
  /// Paths only the client has (deleted under mirror semantics).
  std::vector<std::string> extra;
  TrafficStats stats;  // this walk's traffic only (channel deltas)
  int rounds = 0;
};

/// Runs the walk between a client holding `client_files` and a server
/// holding `server_files` over `channel`. Exact: the returned sets always
/// equal the true difference. Wire traffic is attributed to `probe_phase`
/// (node ids and child hashes) and `leaves_phase` (replies that ship leaf
/// entry lists); the legacy fingerprint protocol uses candidate/literal
/// phases, the manifest protocol charges everything to Phase::kManifest.
template <typename Codec>
StatusOr<TrieDiff> TrieReconcile(
    const Manifest& client_files, const Manifest& server_files,
    uint32_t node_hash_bytes, uint32_t leaf_batch, uint32_t descend_levels,
    SimulatedChannel& channel, obs::SyncObserver* obs,
    obs::Phase probe_phase, obs::Phase leaves_phase) {
  using Dir = SimulatedChannel::Direction;
  if (node_hash_bytes == 0 || node_hash_bytes > 8) {
    return Status::InvalidArgument("merkle: node_hash_bytes in [1,8]");
  }
  if (descend_levels == 0 || descend_levels > 8) {
    return Status::InvalidArgument("merkle: descend_levels in [1,8]");
  }
  TrieDiff result;
  const TrafficStats before = channel.stats();
  const TrieSide client = BuildSide<Codec>(client_files);
  const TrieSide server = BuildSide<Codec>(server_files);

  // Tracks which client entries were covered by a mismatching subtree the
  // server enumerated; anything it has that the server's list lacks is
  // extra, anything the server lists that it lacks (or differs) is stale.
  std::vector<NodeId> pending = {NodeId{}};
  bool first_round = true;

  while (!pending.empty()) {
    ++result.rounds;
    obs::SetRound(obs, static_cast<uint32_t>(result.rounds));
    const auto round_start = obs != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    // Client -> server: the nodes it wants resolved (+ root hash once).
    obs::SetPhase(obs, probe_phase);
    BitWriter ask;
    ask.WriteVarint(pending.size());
    for (NodeId n : pending) {
      WriteNodeId(ask, n);
    }
    if (first_round) {
      ask.WriteBits(NodeHash(client, NodeId{}, node_hash_bytes),
                    8 * node_hash_bytes);
    }
    channel.Send(Dir::kClientToServer, ask.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes ask_msg,
                           channel.Receive(Dir::kClientToServer));

    // Server: answer each node.
    BitReader ain(ask_msg);
    FSYNC_ASSIGN_OR_RETURN(uint64_t count, ain.ReadVarint());
    if (count > ask_msg.size() * 8) {
      return Status::DataLoss("merkle: implausible node count");
    }
    std::vector<NodeId> asked;
    asked.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      FSYNC_ASSIGN_OR_RETURN(NodeId n, ReadNodeId(ain));
      asked.push_back(n);
    }
    BitWriter reply;
    bool reply_has_leaves = false;
    for (size_t i = 0; i < asked.size(); ++i) {
      NodeId n = asked[i];
      if (first_round && i == 0) {
        FSYNC_ASSIGN_OR_RETURN(uint64_t client_root,
                               ain.ReadBits(8 * node_hash_bytes));
        if (client_root == NodeHash(server, NodeId{}, node_hash_bytes)) {
          reply.WriteBits(kReplySame, 2);
          continue;
        }
      }
      auto [lo, hi] = NodeRange(server.entries, n);
      if (hi - lo <= leaf_batch || n.depth >= kMaxDepth) {
        reply.WriteBits(kReplyLeaves, 2);
        WriteEntryList<Codec>(reply, server.entries, lo, hi);
        reply_has_leaves = true;
      } else {
        // Both sides derive the effective descent from the node's depth,
        // so no level count rides the wire.
        const int levels = std::min<int>(
            static_cast<int>(descend_levels), kMaxDepth - n.depth);
        reply.WriteBits(kReplyChildren, 2);
        for (uint64_t h :
             DescendantHashes(server, n, levels, node_hash_bytes)) {
          reply.WriteBits(h, 8 * node_hash_bytes);
        }
      }
    }
    // Replies carrying entry lists are dominated by the shipped leaves;
    // pure child-hash replies stay in the probe phase.
    obs::SetPhase(obs, reply_has_leaves ? leaves_phase : probe_phase);
    channel.Send(Dir::kServerToClient, reply.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes reply_msg,
                           channel.Receive(Dir::kServerToClient));

    // Client: process replies; build next round's pending set.
    BitReader rin(reply_msg);
    std::vector<NodeId> next;
    for (NodeId n : pending) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t code, rin.ReadBits(2));
      if (code == kReplySame) {
        continue;
      }
      if (code == kReplyChildren) {
        const int levels = std::min<int>(
            static_cast<int>(descend_levels), kMaxDepth - n.depth);
        const std::vector<uint64_t> mine =
            DescendantHashes(client, n, levels, node_hash_bytes);
        for (uint64_t idx = 0; idx < mine.size(); ++idx) {
          FSYNC_ASSIGN_OR_RETURN(uint64_t server_hash,
                                 rin.ReadBits(8 * node_hash_bytes));
          if (mine[idx] != server_hash) {
            next.push_back(Descendant(n, levels, idx));
          }
        }
        continue;
      }
      if (code != kReplyLeaves) {
        return Status::DataLoss("merkle: bad reply code");
      }
      FSYNC_ASSIGN_OR_RETURN(uint64_t n_entries, rin.ReadVarint());
      if (n_entries > reply_msg.size()) {
        return Status::DataLoss("merkle: implausible entry count");
      }
      Manifest server_side;
      for (uint64_t e = 0; e < n_entries; ++e) {
        FSYNC_ASSIGN_OR_RETURN(uint64_t len, rin.ReadVarint());
        if (len > 4096) {
          return Status::DataLoss("merkle: implausible name length");
        }
        FSYNC_ASSIGN_OR_RETURN(Bytes name_bytes, rin.ReadBytes(len));
        FSYNC_ASSIGN_OR_RETURN(ManifestEntry meta, Codec::ReadMeta(rin));
        server_side[ToString(name_bytes)] = meta;
      }
      // Compare against the client's entries in this subtree.
      auto [clo, chi] = NodeRange(client.entries, n);
      for (size_t k = clo; k < chi; ++k) {
        const std::string& name = *client.entries[k].name;
        auto it = server_side.find(name);
        if (it == server_side.end()) {
          result.extra.push_back(name);
        } else {
          if (!Codec::Same(it->second, *client.entries[k].meta)) {
            result.stale.push_back(name);
            result.stale_entries[name] = it->second;
          }
          server_side.erase(it);
        }
      }
      for (const auto& [name, meta] : server_side) {
        result.stale.push_back(name);  // server-only files
        result.stale_entries[name] = meta;
      }
    }
    pending = std::move(next);
    first_round = false;
    if (obs != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - round_start;
      obs->RecordRound(
          static_cast<uint32_t>(result.rounds),
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

  std::sort(result.stale.begin(), result.stale.end());
  std::sort(result.extra.begin(), result.extra.end());
  const TrafficStats& after = channel.stats();
  result.stats.client_to_server_bytes =
      after.client_to_server_bytes - before.client_to_server_bytes;
  result.stats.server_to_client_bytes =
      after.server_to_client_bytes - before.server_to_client_bytes;
  result.stats.roundtrips = after.roundtrips - before.roundtrips;
  return result;
}

}  // namespace fsx::reconcile_internal

#endif  // FSYNC_RECONCILE_TRIE_H_
