// Earliest-match rolling scans over a haystack file, shared by every
// protocol that slides a tabled-Adler window over F_old looking for
// transmitted block hashes: zsync's plan construction, multiround's
// per-round matching, the session endpoint's candidate scan, and the
// broadcast hash cast. Replaces four hand-rolled copies of the same
// "group by size, build a weak-hash multimap, roll, verify" loop.
//
// Semantics: for each item, find the SMALLEST window position whose
// truncated weak hash equals the item's key and whose `verify` callback
// accepts — exactly what each former loop computed, which makes the
// sharded parallel path below observationally identical to the serial
// one (earliest match per shard, shards merged in order). Parallelism
// can change wall-clock time only, never results — the determinism
// contract the threaded conformance suite pins.
#ifndef FSYNC_INDEX_SCAN_H_
#define FSYNC_INDEX_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fsync/hash/tabled_adler.h"
#include "fsync/index/block_index.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bytes.h"

namespace fsx {

/// "No position matched" marker in scan results.
inline constexpr uint64_t kScanNoMatch = ~uint64_t{0};

/// Window keys ScanForKeys rolls into its buffer before probing them.
inline constexpr uint64_t kScanChunk = 256;

/// The weak hash every scan rolls: the tabled Adler pair, whose
/// whole-block hash is what the sender computes per block. Window steps
/// and truncations are header-inline, and the truncation holds its
/// masks, built once per scan, so the scan loop makes no call and takes
/// no branch per byte.
struct AdlerScanHash {
  static uint32_t BlockKey(ByteSpan block, int bits) {
    return TabledAdler::Truncate(TabledAdler::Hash(block), bits);
  }
};

/// Execution knobs for the scan loops.
struct ScanOptions {
  /// Worker lanes for sharded scans; 1 (the default) runs the classic
  /// serial loop with its global early exit.
  int num_threads = 1;
  /// A shard must cover at least this many window starts, or the scan
  /// stays serial (sharding overhead would dominate the work saved).
  uint64_t min_shard_windows = 64 * 1024;
};

/// Finds, for every item i, the earliest position p in `haystack` such
/// that the window at p, keyed like AdlerScanHash::BlockKey at
/// `weak_bits`, equals keys[i] and verify(i, p) returns true; writes it
/// to out_pos[i] (kScanNoMatch when none). `verify` must be a pure
/// function of (item, position) — with options.num_threads > 1 it is called
/// concurrently from several threads. `scratch` (optional) reuses a
/// BlockIndex's allocation across calls; the per-byte probe uses its
/// bitmap prefilter, so non-matching positions cost one load.
///
/// The inner loop works in chunks of kScanChunk positions: it rolls the
/// window across the chunk, writing each position's key to a buffer,
/// then probes the buffered keys in position order. Rolling is a pure
/// dependency chain on the window state, with no branch in it, while a
/// probe is a load plus an unpredictable branch, so separating the two
/// lets each loop run at its own speed. Probes still happen in position
/// order, so earliest-match semantics (and therefore wire bytes) are
/// untouched — the chunking is an execution detail. An early exit may
/// leave up to one chunk of rolled keys unprobed; no per-file state is
/// built (the buffer is 1 KiB on the stack).
template <typename Verify>
void ScanForKeys(ByteSpan haystack, uint64_t size, int weak_bits,
                 const std::vector<uint32_t>& keys, Verify&& verify,
                 std::vector<uint64_t>& out_pos,
                 const ScanOptions& options = {},
                 BlockIndex* scratch = nullptr) {
  out_pos.assign(keys.size(), kScanNoMatch);
  if (keys.empty() || size == 0 || size > haystack.size()) {
    return;
  }

  BlockIndex local;
  BlockIndex& index = scratch != nullptr ? *scratch : local;
  index.Reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    index.Insert(keys[i], 0, static_cast<uint32_t>(i));
  }

  const uint64_t total = haystack.size() - size + 1;  // window starts
  const AdlerTruncation truncate(weak_bits);

  // Scans starts [begin, end); `pos` must be pre-filled with kScanNoMatch.
  // Exits early once every item matched within this range.
  auto scan_range = [&](uint64_t begin, uint64_t end,
                        std::vector<uint64_t>& pos) {
    size_t unmatched = keys.size();
    TabledAdlerWindow window(haystack.subspan(begin, size));
    // Probes a key observed at position p; returns true when every item
    // has matched (global early exit).
    auto probe = [&](uint32_t key, uint64_t p, std::vector<uint64_t>& pp) {
      index.ForEach(key, [&](const BlockIndex::Entry& e) {
        if (pp[e.idx] == kScanNoMatch && verify(e.idx, p)) {
          pp[e.idx] = p;
          --unmatched;
        }
        return false;  // several items may share a key
      });
      return unmatched == 0;
    };
    const uint8_t* const bytes = haystack.data();
    uint32_t keybuf[kScanChunk];
    for (uint64_t p = begin; p < end;) {
      const uint64_t n = std::min(kScanChunk, end - p);
      const uint8_t* out = bytes + p;  // leaves the window as it rolls
      const uint8_t* in = out + size;  // enters the window
      // Step k drops out[k] and appends in[k].
      for (uint64_t k = 0; k + 1 < n; ++k) {
        keybuf[k] = window.Key(truncate);
        window.Roll(out[k], in[k]);
      }
      keybuf[n - 1] = window.Key(truncate);
      if (p + n < end) {
        window.Roll(out[n - 1], in[n - 1]);
      }
      for (uint64_t k = 0; k < n; ++k) {
        if (index.MaybeContains(keybuf[k]) && probe(keybuf[k], p + k, pos)) {
          return;
        }
      }
      p += n;
    }
  };

  uint64_t shards =
      options.num_threads <= 1 || options.min_shard_windows == 0
          ? 1
          : std::min<uint64_t>(options.num_threads,
                               total / options.min_shard_windows);
  if (shards <= 1) {
    scan_range(0, total, out_pos);
    return;
  }

  // Shard by region; each shard re-seeds its window at its first start,
  // so consecutive shards overlap by one block length of haystack bytes.
  const uint64_t chunk = (total + shards - 1) / shards;
  std::vector<std::vector<uint64_t>> shard_pos = par::ParallelMap(
      options.num_threads, static_cast<size_t>(shards), [&](size_t s) {
        std::vector<uint64_t> pos(keys.size(), kScanNoMatch);
        uint64_t begin = s * chunk;
        uint64_t end = std::min(total, begin + chunk);
        if (begin < end) {
          scan_range(begin, end, pos);
        }
        return pos;
      });
  // Merge in shard order: the first shard holding a match holds the
  // earliest position (shard ranges are ordered and disjoint).
  for (const std::vector<uint64_t>& pos : shard_pos) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (out_pos[i] == kScanNoMatch) {
        out_pos[i] = pos[i];
      }
    }
  }
}

/// Groups item ordinals [0, n) by size_of(i), preserving first-seen
/// order of the sizes and index order within each group (deterministic,
/// unlike the `unordered_map` iteration this replaces at three call
/// sites — the outcomes never depended on that order, but determinism
/// here makes the scans reproducible byte for byte).
template <typename SizeOf>
std::vector<std::pair<uint64_t, std::vector<size_t>>> GroupBySize(
    size_t n, SizeOf&& size_of) {
  std::vector<std::pair<uint64_t, std::vector<size_t>>> groups;
  std::unordered_map<uint64_t, size_t> ordinal;
  ordinal.reserve(8);
  for (size_t i = 0; i < n; ++i) {
    uint64_t size = size_of(i);
    auto [it, inserted] = ordinal.try_emplace(size, groups.size());
    if (inserted) {
      groups.emplace_back(size, std::vector<size_t>{});
    }
    groups[it->second].second.push_back(i);
  }
  return groups;
}

}  // namespace fsx

#endif  // FSYNC_INDEX_SCAN_H_
