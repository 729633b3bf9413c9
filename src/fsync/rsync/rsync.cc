#include "fsync/rsync/rsync.h"

#include <algorithm>

#include "fsync/compress/codec.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/hash/md4.h"
#include "fsync/hash/rolling_adler.h"
#include "fsync/index/block_index.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// Token stream commands (before compression).
// varint 0                -> literal run: varint length, raw bytes
// varint k (k >= 1)       -> copy client block k-1
constexpr uint64_t kLiteralTag = 0;

}  // namespace

std::vector<BlockSignature> ComputeSignatures(ByteSpan file,
                                              const RsyncParams& params) {
  const size_t b = params.block_size;
  const size_t n_blocks = b == 0 ? 0 : file.size() / b;
  std::vector<BlockSignature> sigs(n_blocks);
  par::ParallelFor(params.num_threads, n_blocks, [&](size_t i) {
    ByteSpan block = file.subspan(i * b, b);
    sigs[i] = {RsyncWeakChecksum(block),
               Md4::HashBits(block, 8 * params.strong_bytes)};
  });
  return sigs;
}

Bytes EncodeSignatures(const std::vector<BlockSignature>& sigs,
                       const RsyncParams& params) {
  BitWriter out;
  out.WriteVarint(sigs.size());
  for (const BlockSignature& s : sigs) {
    out.WriteBits(s.weak, 32);
    out.WriteBits(s.strong, 8 * params.strong_bytes);
  }
  return out.Finish();
}

StatusOr<std::vector<BlockSignature>> DecodeSignatures(
    ByteSpan payload, const RsyncParams& params) {
  BitReader in(payload);
  FSYNC_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
  if (count > payload.size()) {  // each signature needs > 1 byte
    return Status::DataLoss("rsync signatures: implausible count");
  }
  std::vector<BlockSignature> sigs;
  sigs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BlockSignature s;
    FSYNC_ASSIGN_OR_RETURN(uint64_t weak, in.ReadBits(32));
    s.weak = static_cast<uint32_t>(weak);
    FSYNC_ASSIGN_OR_RETURN(s.strong, in.ReadBits(8 * params.strong_bytes));
    sigs.push_back(s);
  }
  return sigs;
}

Bytes RsyncServerEncode(ByteSpan current,
                        const std::vector<BlockSignature>& sigs,
                        const RsyncParams& params) {
  const size_t b = params.block_size;
  const size_t n = current.size();

  // Weak checksum -> block entries; equal keys probe in insertion order,
  // so the lowest matching block index still wins below.
  BlockIndex table;
  table.Reserve(sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    table.Insert(sigs[i].weak, sigs[i].strong, static_cast<uint32_t>(i));
  }

  BitWriter raw;
  raw.WriteVarint(n);

  size_t lit_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > lit_start) {
      raw.WriteVarint(kLiteralTag);
      raw.WriteVarint(end - lit_start);
      raw.WriteBytes(current.subspan(lit_start, end - lit_start));
    }
  };

  if (n >= b && !sigs.empty()) {
    RollingAdler roll(current.subspan(0, b));
    size_t pos = 0;
    while (pos + b <= n) {
      bool matched = false;
      const uint32_t weak = roll.value();
      if (table.MaybeContains(weak)) {
        // The strong hash is computed lazily, only once a probe actually
        // reaches an entry with this weak key (same condition as the old
        // `table.find` hit).
        uint64_t strong = 0;
        bool have_strong = false;
        table.ForEach(weak, [&](const BlockIndex::Entry& e) {
          if (!have_strong) {
            strong = Md4::HashBits(current.subspan(pos, b),
                                   8 * params.strong_bytes);
            have_strong = true;
          }
          if (e.tag != strong) {
            return false;
          }
          flush_literals(pos);
          raw.WriteVarint(static_cast<uint64_t>(e.idx) + 1);
          pos += b;
          lit_start = pos;
          if (pos + b <= n) {
            roll = RollingAdler(current.subspan(pos, b));
          }
          matched = true;
          return true;
        });
      }
      if (!matched) {
        roll.Roll(current[pos], pos + b < n ? current[pos + b] : 0);
        ++pos;
      }
    }
  }
  flush_literals(n);
  Bytes stream = raw.Finish();

  // The stream is always compressed (rsync -z, what the paper measures);
  // the leading byte says so.
  Bytes out;
  out.push_back(1);
  Bytes packed = Compress(stream);
  Append(out, packed);
  return out;
}

StatusOr<Bytes> RsyncClientApply(ByteSpan outdated, ByteSpan stream,
                                 const RsyncParams& params) {
  if (stream.empty()) {
    return Status::DataLoss("rsync stream: empty");
  }
  if (stream[0] != 1) {
    return Status::DataLoss("rsync stream: bad compression flag");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes body, Decompress(stream.subspan(1)));

  BitReader in(body);
  FSYNC_ASSIGN_OR_RETURN(uint64_t new_size, in.ReadVarint());
  if (new_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("rsync stream: implausible size");
  }
  const size_t b = params.block_size;

  Bytes out;
  // `new_size` is attacker-controlled until the final fingerprint check;
  // cap the speculative reservation so a corrupted header cannot force a
  // multi-gigabyte allocation before decoding fails.
  out.reserve(std::min<uint64_t>(new_size, uint64_t{16} << 20));
  while (out.size() < new_size) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t tag, in.ReadVarint());
    if (tag == kLiteralTag) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
      if (out.size() + len > new_size) {
        return Status::DataLoss("rsync stream: literal overruns");
      }
      FSYNC_ASSIGN_OR_RETURN(Bytes lit, in.ReadBytes(len));
      Append(out, lit);
    } else {
      uint64_t idx = tag - 1;
      if ((idx + 1) * b > outdated.size()) {
        return Status::DataLoss("rsync stream: block index out of range");
      }
      if (out.size() + b > new_size) {
        return Status::DataLoss("rsync stream: block copy overruns");
      }
      Append(out, outdated.subspan(idx * b, b));
    }
  }
  return out;
}

StatusOr<RsyncResult> RsyncSynchronize(ByteSpan outdated, ByteSpan current,
                                       const RsyncParams& params,
                                       SimulatedChannel& channel,
                                       obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  ObservedSession scope(channel, obs, "rsync");
  RsyncResult result;

  // 1. Client announces its file fingerprint (and requests the sync).
  obs::SetPhase(obs, obs::Phase::kHandshake);
  Fingerprint old_fp = FileFingerprint(outdated);
  channel.Send(Dir::kClientToServer, ByteSpan(old_fp.data(), old_fp.size()));

  // 2. Server compares; replies with one byte: 0 = unchanged, 1 = proceed.
  Fingerprint new_fp = FileFingerprint(current);
  FSYNC_ASSIGN_OR_RETURN(Bytes fp_msg, channel.Receive(Dir::kClientToServer));
  bool unchanged = fp_msg.size() == new_fp.size() &&
                   std::equal(new_fp.begin(), new_fp.end(), fp_msg.begin());
  // The verdict echoes the fingerprint so a corrupted "unchanged" byte
  // cannot make the client silently keep a stale file.
  Bytes verdict = {static_cast<uint8_t>(unchanged ? 0 : 1)};
  Append(verdict, ByteSpan(new_fp.data(), new_fp.size()));
  channel.Send(Dir::kServerToClient, verdict);
  FSYNC_ASSIGN_OR_RETURN(Bytes v, channel.Receive(Dir::kServerToClient));
  if (v.size() < 17) {
    return Status::DataLoss("rsync: short verdict message");
  }
  if (v.at(0) == 0) {
    if (!std::equal(old_fp.begin(), old_fp.end(), v.begin() + 1)) {
      return Status::DataLoss("rsync: unchanged verdict mismatch");
    }
    result.reconstructed.assign(outdated.begin(), outdated.end());
    result.stats = channel.stats();
    return result;
  }

  // 3. Client sends block signatures.
  obs::SetPhase(obs, obs::Phase::kCandidates);
  std::vector<BlockSignature> sigs = ComputeSignatures(outdated, params);
  channel.Send(Dir::kClientToServer, EncodeSignatures(sigs, params));

  // 4. Server matches and sends the token stream.
  FSYNC_ASSIGN_OR_RETURN(Bytes sig_msg, channel.Receive(Dir::kClientToServer));
  FSYNC_ASSIGN_OR_RETURN(std::vector<BlockSignature> server_sigs,
                         DecodeSignatures(sig_msg, params));
  Bytes stream = RsyncServerEncode(current, server_sigs, params);
  obs::SetPhase(obs, obs::Phase::kDelta);
  channel.Send(Dir::kServerToClient, stream);

  // 5. Client reconstructs and verifies against the file fingerprint the
  //    verdict carried; on mismatch the server transfers the whole file.
  FSYNC_ASSIGN_OR_RETURN(Bytes stream_msg, channel.Receive(Dir::kServerToClient));
  FSYNC_ASSIGN_OR_RETURN(Bytes rebuilt,
                         RsyncClientApply(outdated, stream_msg, params));
  ByteSpan want_fp = ByteSpan(v).subspan(1, 16);
  Fingerprint got_fp = FileFingerprint(rebuilt);
  if (!std::equal(got_fp.begin(), got_fp.end(), want_fp.begin())) {
    // Strong-hash collision defeated the block checksums: fall back.
    obs::SetPhase(obs, obs::Phase::kFallback);
    Bytes full = Compress(current);
    channel.Send(Dir::kServerToClient, full);
    FSYNC_ASSIGN_OR_RETURN(Bytes full_msg,
                           channel.Receive(Dir::kServerToClient));
    FSYNC_ASSIGN_OR_RETURN(rebuilt, Decompress(full_msg));
    // The fallback travels over the same untrusted channel as everything
    // else; without this check a corrupted full transfer that survives
    // decompression would be accepted silently.
    Fingerprint fb_fp = FileFingerprint(rebuilt);
    if (!std::equal(fb_fp.begin(), fb_fp.end(), want_fp.begin())) {
      return Status::DataLoss("rsync: fallback transfer mismatch");
    }
    result.fell_back_to_full_transfer = true;
  }
  result.reconstructed = std::move(rebuilt);
  result.stats = channel.stats();
  return result;
}

StatusOr<RsyncResult> RsyncBestBlockSize(
    ByteSpan outdated, ByteSpan current, const RsyncParams& base_params,
    const std::vector<uint32_t>& candidates) {
  std::vector<uint32_t> sizes = candidates;
  if (sizes.empty()) {
    sizes = {64, 128, 256, 512, 700, 1024, 2048, 4096, 8192};
  }
  std::optional<RsyncResult> best;
  for (uint32_t b : sizes) {
    if (b == 0) {
      return Status::InvalidArgument("block size 0");
    }
    RsyncParams p = base_params;
    p.block_size = b;
    SimulatedChannel channel;
    FSYNC_ASSIGN_OR_RETURN(RsyncResult r,
                           RsyncSynchronize(outdated, current, p, channel));
    if (!best.has_value() ||
        r.stats.total_bytes() < best->stats.total_bytes()) {
      best = std::move(r);
    }
  }
  return *std::move(best);
}

}  // namespace fsx
