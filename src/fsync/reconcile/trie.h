// The manifest walk as two message-in/message-out halves. Each side
// builds a trie keyed by H(name) over its Manifest; the client half
// probes nodes, the server half answers each with either its descendant
// subtrees' hashes or the subtree's leaf entries, and the walk descends
// only where the hashes disagree. ManifestReconcile (manifest.h) and the
// tree driver's halves (core/tree_session.h) both run it.
//
// The halves carry no transport: PumpWalk moves their messages over a
// SimulatedChannel, and the daemon moves the same bytes over frames.
#ifndef FSYNC_RECONCILE_TRIE_H_
#define FSYNC_RECONCILE_TRIE_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
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

// The walk's shape, the same for every caller (docs/PROTOCOL.md,
// "Manifest reconciliation"): node hashes ride the wire truncated to
// kNodeHashBytes; a node holding at most kLeafBatch entries is answered
// with its entries; a mismatching node descends kDescentLevels levels per
// round, so even 100k files reconcile in a handful of roundtrips.
inline constexpr int kNodeHashBytes = 8;
inline constexpr size_t kLeafBatch = 4;
inline constexpr int kDescentLevels = 4;

// Salt of the trie key H(name) = Md5::HashBits(name, 64, kNameKeySalt).
inline constexpr uint64_t kNameKeySalt = 0x791E0;

// A trie node: all entries whose key starts with the high `depth` bits of
// `prefix` (prefix stored left-aligned in the high bits).
struct NodeId {
  int depth = 0;
  uint64_t prefix = 0;  // high `depth` bits meaningful
  friend bool operator==(const NodeId&, const NodeId&) = default;
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
    return Status::DataLoss("manifest walk: bad node depth");
  }
  node.depth = static_cast<int>(depth);
  if (node.depth > 0) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t p, r.ReadBits(node.depth));
    node.prefix = p << (64 - node.depth);
  }
  return node;
}

/// The `idx`-th descendant of `node` exactly `levels` below it (idx runs
/// over the 2^levels subtrees in key order).
inline NodeId Descendant(NodeId node, int levels, uint64_t idx) {
  NodeId d;
  d.depth = node.depth + levels;
  d.prefix = node.prefix | (idx << (64 - d.depth));
  return d;
}

// Server reply codes per queried node.
inline constexpr uint64_t kReplyLeaves = 0;    // entry list follows
inline constexpr uint64_t kReplyChildren = 1;  // descendant hashes follow
inline constexpr uint64_t kReplySame = 2;      // root only: hashes matched

// A leaf entry's fields past its name. Wire form: raw 16-byte
// fingerprint, varint size, varint mode (docs/PROTOCOL.md, "Manifest
// reconciliation"). The node hash covers the same fields in fixed-width
// little-endian form.
inline void AppendEntryHashForm(Bytes& out, const ManifestEntry& e) {
  Append(out, e.fingerprint);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(e.size >> (8 * i)));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(e.mode >> (8 * i)));
  }
}

inline void WriteEntry(BitWriter& w, const ManifestEntry& e) {
  w.WriteBytes(ByteSpan(e.fingerprint.data(), e.fingerprint.size()));
  w.WriteVarint(e.size);
  w.WriteVarint(e.mode);
}

inline StatusOr<ManifestEntry> ReadEntry(BitReader& r) {
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

// One replica entry under its 64-bit trie key H(name). `name` and
// `meta` point into the caller's manifest, which outlives the walk.
struct Entry {
  uint64_t key = 0;
  const std::string* name = nullptr;
  const ManifestEntry* meta = nullptr;
};

// DescendantHashes results of one side, by (node, levels), filled lazily
// by MemoDescendantHashes. Records are only ever added, never changed.
struct DescentMemo {
  struct Key {
    NodeId node;
    int levels = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(
          k.node.prefix ^ (static_cast<uint64_t>(k.node.depth) << 1) ^
          (static_cast<uint64_t>(k.levels) << 9));
    }
  };
  std::mutex mu;
  std::unordered_map<Key, std::vector<uint64_t>, KeyHash> hashes;
};

// One replica's side of the walk: its entries sorted by (key, name), and
// each entry's node-hash preimage (name, 0, AppendEntryHashForm) written
// once, in that order, into one buffer. The entries under a node are a
// contiguous run, so the node's hash is the MD5 of one slice of
// `preimage`.
//
// A side never changes once built, so what the walk hashes over it is
// computed once: the root hash when the side is built, each node's
// descendant hashes the first time any server half asks for them
// (MemoDescendantHashes). One side served to many clients, as the
// daemon's TreeSnapshot is, hashes a node once, not once per client.
struct TrieSide {
  std::vector<Entry> entries;
  Bytes preimage;
  std::vector<size_t> offsets;  // entry i is [offsets[i], offsets[i + 1])
  uint64_t root_hash = 0;       // NodeHash of the root
  std::unique_ptr<DescentMemo> memo = std::make_unique<DescentMemo>();
};

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

// A node hash: the low 8 * kNodeHashBytes bits of the MD5 of its
// preimage, computed afresh (the root's is side.root_hash).
inline uint64_t NodeHash(const TrieSide& side, NodeId node) {
  return Md5::HashBits(NodePreimage(side, node), 8 * kNodeHashBytes);
}

// NodeHash of each of the 2^levels descendants of `node`, in key order,
// hashed afresh in one batched call.
inline std::vector<uint64_t> DescendantHashes(const TrieSide& side,
                                              NodeId node, int levels) {
  const size_t count = size_t{1} << levels;
  std::vector<ByteSpan> slices(count);
  for (size_t idx = 0; idx < count; ++idx) {
    slices[idx] = NodePreimage(side, Descendant(node, levels, idx));
  }
  std::vector<uint64_t> out(count);
  Md5HashBitsBatch(slices.data(), count, 8 * kNodeHashBytes,
                   /*salt=*/0, out.data());
  return out;
}

// DescendantHashes(side, node, levels), computed the first time any
// caller asks and remembered in side.memo; safe to call from any number
// of threads at once. TrieServer asks only for nodes of this side that
// hold more than kLeafBatch entries, so no client can add a key the side
// does not have. The memo also keeps at most one record per entry of the
// side (a walk over evenly spread keys needs a fraction of that); past
// that bound results are computed afresh and not kept.
inline std::vector<uint64_t> MemoDescendantHashes(const TrieSide& side,
                                                  NodeId node, int levels) {
  DescentMemo& memo = *side.memo;
  const DescentMemo::Key key{node, levels};
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    auto it = memo.hashes.find(key);
    if (it != memo.hashes.end()) {
      return it->second;
    }
  }
  // Hashed outside the lock; two threads racing on one node both compute
  // it, and the first to finish stores it.
  std::vector<uint64_t> hashes = DescendantHashes(side, node, levels);
  std::lock_guard<std::mutex> lock(memo.mu);
  if (memo.hashes.size() < side.entries.size()) {
    memo.hashes.try_emplace(key, hashes);
  }
  return hashes;
}

inline TrieSide BuildSide(const Manifest& files) {
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
    AppendEntryHashForm(side.preimage, *e.meta);
    side.offsets.push_back(side.preimage.size());
  }
  side.root_hash = NodeHash(side, NodeId{});
  return side;
}

// Levels a mismatching node at `depth` descends. Both sides derive it
// from the node's depth, so no level count rides the wire.
inline int DescentLevels(int depth) {
  return std::min(kDescentLevels, kMaxDepth - depth);
}

/// The server half: answers one client's asks from a side built once
/// (BuildSide), which any number of concurrent server halves can share.
///
/// It answers only the walk it offered. The first ask must be exactly
/// the root with the client's root hash; every later ask must name a
/// subsequence of the nodes the previous reply offered (so each at most
/// once). Anything else is DataLoss. So a client can make the server
/// hash no more than the walk the server itself handed out, however
/// often it asks.
class TrieServer {
 public:
  /// `side` must outlive the server.
  explicit TrieServer(const TrieSide& side) : side_(side) {}

  /// Answers one ask.
  StatusOr<Bytes> OnWalk(ByteSpan ask) {
    BitReader in(ask);
    FSYNC_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
    if (count == 0 || count > (started_ ? offered_.size() : 1)) {
      return Status::DataLoss("manifest walk: ask names nodes never offered");
    }
    BitWriter reply;
    std::vector<NodeId> offered;
    size_t next_offer = 0;  // asks follow the offer order
    for (uint64_t i = 0; i < count; ++i) {
      FSYNC_ASSIGN_OR_RETURN(NodeId n, ReadNodeId(in));
      if (!started_) {
        if (n.depth != 0) {
          return Status::DataLoss(
              "manifest walk: the first ask must be the root");
        }
        FSYNC_ASSIGN_OR_RETURN(uint64_t client_root,
                               in.ReadBits(8 * kNodeHashBytes));
        if (client_root == side_.root_hash) {
          reply.WriteBits(kReplySame, 2);
          continue;
        }
      } else {
        while (next_offer < offered_.size() && offered_[next_offer] != n) {
          ++next_offer;
        }
        if (next_offer == offered_.size()) {
          return Status::DataLoss(
              "manifest walk: ask names a node never offered");
        }
        ++next_offer;
      }
      auto [lo, hi] = NodeRange(side_.entries, n);
      if (hi - lo <= kLeafBatch || n.depth >= kMaxDepth) {
        reply.WriteBits(kReplyLeaves, 2);
        reply.WriteVarint(hi - lo);
        for (size_t k = lo; k < hi; ++k) {
          reply.WriteVarint(side_.entries[k].name->size());
          reply.WriteBytes(AsBytes(*side_.entries[k].name));
          WriteEntry(reply, *side_.entries[k].meta);
        }
      } else {
        const int levels = DescentLevels(n.depth);
        reply.WriteBits(kReplyChildren, 2);
        const std::vector<uint64_t> hashes =
            MemoDescendantHashes(side_, n, levels);
        for (uint64_t idx = 0; idx < hashes.size(); ++idx) {
          reply.WriteBits(hashes[idx], 8 * kNodeHashBytes);
          offered.push_back(Descendant(n, levels, idx));
        }
      }
    }
    if (in.bits_remaining() >= 8) {
      return Status::DataLoss("manifest walk: trailing bytes after an ask");
    }
    started_ = true;
    offered_ = std::move(offered);
    return reply.Finish();
  }

 private:
  const TrieSide& side_;
  bool started_ = false;
  std::vector<NodeId> offered_;  // by the last reply, in key order
};

/// The client half: asks for the nodes whose hashes disagree and ends
/// with the exact difference from the client's point of view.
class TrieClient {
 public:
  /// `files` must outlive the client.
  explicit TrieClient(const Manifest& files) : side_(BuildSide(files)) {}

  /// The first ask: the root, with this side's root hash.
  Bytes Start() {
    diff_.rounds = 1;
    BitWriter ask;
    ask.WriteVarint(1);
    WriteNodeId(ask, NodeId{});
    ask.WriteBits(side_.root_hash, 8 * kNodeHashBytes);
    return ask.Finish();
  }

  /// Consumes the reply to the last ask. Returns the next ask, or
  /// nullopt once the walk is done and diff() holds its result.
  StatusOr<std::optional<Bytes>> OnWalkReply(ByteSpan reply) {
    BitReader rin(reply);
    std::vector<NodeId> next;
    for (NodeId n : pending_) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t code, rin.ReadBits(2));
      if (code == kReplySame) {
        continue;
      }
      if (code == kReplyChildren) {
        const int levels = DescentLevels(n.depth);
        const std::vector<uint64_t> mine =
            DescendantHashes(side_, n, levels);
        for (uint64_t idx = 0; idx < mine.size(); ++idx) {
          FSYNC_ASSIGN_OR_RETURN(uint64_t server_hash,
                                 rin.ReadBits(8 * kNodeHashBytes));
          if (mine[idx] != server_hash) {
            next.push_back(Descendant(n, levels, idx));
          }
        }
        continue;
      }
      if (code != kReplyLeaves) {
        return Status::DataLoss("manifest walk: bad reply code");
      }
      FSYNC_RETURN_IF_ERROR(ReadLeaves(rin, reply.size(), n));
    }
    pending_ = std::move(next);
    if (pending_.empty()) {
      // stale_entries' keys: ascending, and once each even if a broken
      // server lists a path under two nodes.
      for (const auto& kv : diff_.stale_entries) {
        diff_.stale.push_back(kv.first);
      }
      std::sort(diff_.extra.begin(), diff_.extra.end());
      return std::optional<Bytes>();
    }
    ++diff_.rounds;
    BitWriter ask;
    ask.WriteVarint(pending_.size());
    for (NodeId n : pending_) {
      WriteNodeId(ask, n);
    }
    return std::optional<Bytes>(ask.Finish());
  }

  /// The walk's result once OnWalkReply returned nullopt: stale, extra,
  /// stale_entries and rounds (stats belong to whoever moved the bytes).
  ManifestDiff& diff() { return diff_; }
  const ManifestDiff& diff() const { return diff_; }

 private:
  // Compares the server's leaf list for `n` against this side's
  // entries under `n`: what only this side has is extra, what the
  // server lists differently or alone is stale (stale_entries).
  Status ReadLeaves(BitReader& rin, size_t reply_size, NodeId n) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t n_entries, rin.ReadVarint());
    if (n_entries > reply_size) {
      return Status::DataLoss("manifest walk: implausible entry count");
    }
    Manifest server_side;
    for (uint64_t e = 0; e < n_entries; ++e) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, rin.ReadVarint());
      if (len > 4096) {
        return Status::DataLoss("manifest walk: implausible name length");
      }
      FSYNC_ASSIGN_OR_RETURN(Bytes name_bytes, rin.ReadBytes(len));
      FSYNC_ASSIGN_OR_RETURN(ManifestEntry meta, ReadEntry(rin));
      server_side[ToString(name_bytes)] = meta;
    }
    auto [lo, hi] = NodeRange(side_.entries, n);
    for (size_t k = lo; k < hi; ++k) {
      const std::string& name = *side_.entries[k].name;
      auto it = server_side.find(name);
      if (it == server_side.end()) {
        diff_.extra.push_back(name);
        continue;
      }
      if (it->second != *side_.entries[k].meta) {
        diff_.stale_entries[name] = it->second;
      }
      server_side.erase(it);
    }
    diff_.stale_entries.merge(server_side);  // server-only files
    return Status::Ok();
  }

  const TrieSide side_;
  std::vector<NodeId> pending_ = {NodeId{}};
  ManifestDiff diff_;
};

/// Moves one walk's messages between a client half (Start, OnWalkReply)
/// and a server half (OnWalk) over `channel`, one roundtrip per round,
/// all charged to obs::Phase::kManifest.
template <typename Client, typename Server>
Status PumpWalk(Client& client, Server& server, SimulatedChannel& channel,
                obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  std::optional<Bytes> ask = client.Start();
  for (uint32_t round = 1; ask.has_value(); ++round) {
    obs::SetRound(obs, round);
    const auto round_start = obs != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    obs::SetPhase(obs, obs::Phase::kManifest);
    channel.Send(Dir::kClientToServer, *ask);
    FSYNC_ASSIGN_OR_RETURN(Bytes ask_msg,
                           channel.Receive(Dir::kClientToServer));
    FSYNC_ASSIGN_OR_RETURN(Bytes reply, server.OnWalk(ask_msg));
    channel.Send(Dir::kServerToClient, reply);
    FSYNC_ASSIGN_OR_RETURN(Bytes reply_msg,
                           channel.Receive(Dir::kServerToClient));
    FSYNC_ASSIGN_OR_RETURN(ask, client.OnWalkReply(reply_msg));
    if (obs != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - round_start;
      obs->RecordRound(
          round, static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         elapsed)
                         .count()));
    }
  }
  return Status::Ok();
}

}  // namespace fsx::reconcile_internal

namespace fsx {

/// The manifest walk's halves.
using ManifestWalkClient = reconcile_internal::TrieClient;
using ManifestWalkServer = reconcile_internal::TrieServer;

}  // namespace fsx

#endif  // FSYNC_RECONCILE_TRIE_H_
