#include "fsync/core/broadcast.h"

#include <chrono>
#include <map>

#include "fsync/hash/fingerprint.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/index/scan.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

constexpr uint64_t kStrongSalt = 0xBCA57;

struct CastBlock {
  uint64_t offset = 0;
  uint64_t size = 0;
};

// The full recursive split tree, level by level — identical on the
// builder and every client, derived from (new_size, start, min) alone.
std::vector<std::vector<CastBlock>> BuildTree(uint64_t new_size,
                                              const HashCastConfig& cfg) {
  std::vector<std::vector<CastBlock>> levels;
  std::vector<CastBlock> cur;
  for (uint64_t off = 0; off < new_size; off += cfg.start_block_size) {
    cur.push_back(
        {off, std::min<uint64_t>(cfg.start_block_size, new_size - off)});
  }
  while (!cur.empty()) {
    levels.push_back(cur);
    std::vector<CastBlock> next;
    for (const CastBlock& b : cur) {
      if (b.size >= 2 * cfg.min_block_size) {
        uint64_t left = (b.size + 1) / 2;
        next.push_back({b.offset, left});
        next.push_back({b.offset + left, b.size - left});
      }
    }
    cur = std::move(next);
  }
  return levels;
}

Status ValidateConfig(const HashCastConfig& cfg) {
  if (cfg.start_block_size == 0 ||
      (cfg.start_block_size & (cfg.start_block_size - 1)) != 0 ||
      cfg.min_block_size == 0 || cfg.weak_bits < 1 || cfg.weak_bits > 32 ||
      cfg.strong_bits < 1 || cfg.strong_bits > 64) {
    return Status::InvalidArgument("hash cast: bad configuration");
  }
  return Status::Ok();
}

}  // namespace

double CastMap::CoveredFraction() const {
  if (new_size == 0) {
    return 1.0;
  }
  uint64_t covered = 0;
  for (const Range& r : ranges) {
    covered += r.length;
  }
  return static_cast<double>(covered) / static_cast<double>(new_size);
}

StatusOr<Bytes> BuildHashCast(ByteSpan current,
                              const HashCastConfig& config,
                              int num_threads) {
  FSYNC_RETURN_IF_ERROR(ValidateConfig(config));
  BitWriter out;
  out.WriteVarint(current.size());
  Fingerprint fp = FileFingerprint(current);
  out.WriteBytes(ByteSpan(fp.data(), fp.size()));
  out.WriteVarint(config.start_block_size);
  out.WriteVarint(config.min_block_size);
  out.WriteBits(static_cast<uint64_t>(config.weak_bits), 6);
  out.WriteBits(static_cast<uint64_t>(config.strong_bits), 7);
  out.WriteBits(static_cast<uint64_t>(config.delta_codec), 4);

  // Hash every tree block in parallel; serialization stays in tree order,
  // so the cast payload is identical for any thread count.
  std::vector<CastBlock> flat;
  for (const auto& level : BuildTree(current.size(), config)) {
    flat.insert(flat.end(), level.begin(), level.end());
  }
  struct WeakStrong {
    uint32_t weak = 0;
    uint64_t strong = 0;
  };
  std::vector<WeakStrong> hashes(flat.size());
  par::ParallelFor(num_threads, flat.size(), [&](size_t i) {
    ByteSpan block = current.subspan(flat[i].offset, flat[i].size);
    hashes[i] = {static_cast<uint32_t>(TabledAdler::Truncate(
                     TabledAdler::Hash(block), config.weak_bits)),
                 Md5::HashBits(block, config.strong_bits, kStrongSalt)};
  });
  for (const WeakStrong& h : hashes) {
    out.WriteBits(h.weak, config.weak_bits);
    out.WriteBits(h.strong, config.strong_bits);
  }
  return out.Finish();
}

StatusOr<CastMap> ApplyHashCast(ByteSpan outdated, ByteSpan cast,
                                int num_threads) {
  BitReader in(cast);
  CastMap map;
  FSYNC_ASSIGN_OR_RETURN(map.new_size, in.ReadVarint());
  if (map.new_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("hash cast: implausible size");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes fp, in.ReadBytes(16));
  std::copy(fp.begin(), fp.end(), map.fingerprint.begin());
  FSYNC_ASSIGN_OR_RETURN(uint64_t start, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(uint64_t min, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(uint64_t weak, in.ReadBits(6));
  FSYNC_ASSIGN_OR_RETURN(uint64_t strong, in.ReadBits(7));
  FSYNC_ASSIGN_OR_RETURN(uint64_t codec, in.ReadBits(4));
  map.config.start_block_size = static_cast<uint32_t>(start);
  map.config.min_block_size = static_cast<uint32_t>(min);
  map.config.weak_bits = static_cast<int>(weak);
  map.config.strong_bits = static_cast<int>(strong);
  map.config.delta_codec = static_cast<DeltaCodec>(codec);
  FSYNC_RETURN_IF_ERROR(ValidateConfig(map.config));

  // Confirmed ranges keyed by begin (non-overlapping).
  std::map<uint64_t, CastMap::Range> confirmed;
  auto covered = [&](const CastBlock& b) {
    auto it = confirmed.upper_bound(b.offset);
    if (it == confirmed.begin()) {
      return false;
    }
    --it;
    return it->second.begin <= b.offset &&
           it->second.begin + it->second.length >= b.offset + b.size;
  };

  struct Pending {
    CastBlock block;
    uint32_t weak = 0;
    uint64_t strong = 0;
    bool found = false;
    uint64_t pos = 0;
  };

  // Scan scratch reused across levels.
  BlockIndex scan_scratch;
  std::vector<uint32_t> scan_keys;
  std::vector<uint64_t> scan_pos;
  std::vector<Pending> pending;
  ScanOptions scan_opts;
  scan_opts.num_threads = num_threads;

  for (const auto& level : BuildTree(map.new_size, map.config)) {
    // Read every block's bits; only uncovered, fitting blocks join the
    // matching pass.
    pending.clear();
    for (const CastBlock& b : level) {
      Pending p;
      p.block = b;
      FSYNC_ASSIGN_OR_RETURN(uint64_t w,
                             in.ReadBits(map.config.weak_bits));
      FSYNC_ASSIGN_OR_RETURN(p.strong,
                             in.ReadBits(map.config.strong_bits));
      p.weak = static_cast<uint32_t>(w);
      if (!covered(b) && b.size <= outdated.size()) {
        pending.push_back(p);
      }
    }
    // One rolling pass per distinct size via the shared matching core;
    // strong bits verified locally.
    for (const auto& [size, idxs] : GroupBySize(
             pending.size(),
             [&](size_t i) { return pending[i].block.size; })) {
      scan_keys.resize(idxs.size());
      for (size_t j = 0; j < idxs.size(); ++j) {
        scan_keys[j] = pending[idxs[j]].weak;
      }
      const uint64_t block_size = size;
      const std::vector<size_t>& items = idxs;
      ScanForKeys(
          outdated, block_size, map.config.weak_bits, scan_keys,
          [&](size_t j, uint64_t pos) {
            return Md5::HashBits(outdated.subspan(pos, block_size),
                                 map.config.strong_bits,
                                 kStrongSalt) == pending[items[j]].strong;
          },
          scan_pos, scan_opts, &scan_scratch);
      for (size_t j = 0; j < idxs.size(); ++j) {
        if (scan_pos[j] != kScanNoMatch) {
          pending[idxs[j]].found = true;
          pending[idxs[j]].pos = scan_pos[j];
        }
      }
    }
    for (const Pending& p : pending) {
      if (p.found) {
        confirmed[p.block.offset] =
            CastMap::Range{p.block.offset, p.block.size, p.pos};
      }
    }
  }

  map.ranges.reserve(confirmed.size());
  for (const auto& [begin, r] : confirmed) {
    map.ranges.push_back(r);
  }
  return map;
}

Bytes EncodeCastRequest(const CastMap& map) {
  BitWriter out;
  out.WriteVarint(map.ranges.size());
  uint64_t prev_end = 0;
  for (const CastMap::Range& r : map.ranges) {
    out.WriteVarint(r.begin - prev_end);
    out.WriteVarint(r.length);
    prev_end = r.begin + r.length;
  }
  return out.Finish();
}

StatusOr<Bytes> MakeCastDelta(ByteSpan current, ByteSpan request,
                              const HashCastConfig& config) {
  BitReader in(request);
  FSYNC_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
  if (count > current.size() + 1) {
    return Status::DataLoss("cast request: implausible range count");
  }
  // The requested ranges, in order, are the reference and the known runs
  // that guide the encode; ranges that touch form one run.
  Bytes ref;
  std::vector<KnownRun> runs;
  uint64_t pos = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t gap, in.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
    // Checked against what is left, so that a huge gap or length cannot
    // wrap `pos` around.
    if (gap > current.size() - pos) {
      return Status::DataLoss("cast request: range out of bounds");
    }
    pos += gap;
    if (len > current.size() - pos) {
      return Status::DataLoss("cast request: range out of bounds");
    }
    if (!runs.empty() &&
        runs.back().target_pos + runs.back().length == pos) {
      runs.back().length += len;
    } else if (len > 0) {
      runs.push_back({pos, ref.size(), len});
    }
    Append(ref, current.subspan(pos, len));
    pos += len;
  }
  return DeltaEncode(config.delta_codec, ref, current, runs);
}

uint64_t HashCastConfigDigest(const HashCastConfig& config) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(config.start_block_size);
  mix(config.min_block_size);
  mix(static_cast<uint64_t>(config.weak_bits));
  mix(static_cast<uint64_t>(config.strong_bits));
  mix(static_cast<uint64_t>(config.delta_codec));
  return h;
}

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

StatusOr<Bytes> BuildHashCastCached(ByteSpan current,
                                    const HashCastConfig& config,
                                    cache::SyncCache* cache,
                                    obs::SyncObserver* obs,
                                    int num_threads) {
  if (cache == nullptr) {
    return BuildHashCast(current, config, num_threads);
  }
  const cache::CacheKey key =
      cache::SignatureKey(FileFingerprint(current), config.start_block_size,
                          HashCastConfigDigest(config));
  if (std::optional<cache::SyncCache::Hit> hit = cache->Get(key, obs)) {
    return std::move(hit->payload);
  }
  const auto start = std::chrono::steady_clock::now();
  FSYNC_ASSIGN_OR_RETURN(Bytes cast,
                         BuildHashCast(current, config, num_threads));
  cache->Put(key, cast, {}, ElapsedNs(start), obs);
  return cast;
}

StatusOr<Bytes> MakeCastDeltaCached(ByteSpan current, ByteSpan request,
                                    const HashCastConfig& config,
                                    cache::SyncCache* cache,
                                    obs::SyncObserver* obs) {
  if (cache == nullptr) {
    return MakeCastDelta(current, request, config);
  }
  const cache::CacheKey key =
      cache::DeltaKey(Md5::Hash(request), FileFingerprint(current),
                      HashCastConfigDigest(config));
  if (std::optional<cache::SyncCache::Hit> hit = cache->Get(key, obs)) {
    return std::move(hit->payload);
  }
  const auto start = std::chrono::steady_clock::now();
  FSYNC_ASSIGN_OR_RETURN(Bytes delta,
                         MakeCastDelta(current, request, config));
  cache->Put(key, delta, {}, ElapsedNs(start), obs);
  return delta;
}

StatusOr<Bytes> ApplyCastDelta(ByteSpan outdated, const CastMap& map,
                               ByteSpan delta) {
  Bytes ref;
  for (const CastMap::Range& r : map.ranges) {
    if (r.src + r.length > outdated.size()) {
      return Status::InvalidArgument("cast map: source out of bounds");
    }
    Append(ref, outdated.subspan(r.src, r.length));
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes target,
                         DeltaDecode(map.config.delta_codec, ref, delta));
  Fingerprint got = FileFingerprint(target);
  if (!std::equal(got.begin(), got.end(), map.fingerprint.begin())) {
    return Status::DataLoss("cast delta: fingerprint mismatch");
  }
  return target;
}

}  // namespace fsx
