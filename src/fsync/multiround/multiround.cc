#include "fsync/multiround/multiround.h"

#include <chrono>
#include <vector>

#include "fsync/compress/codec.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/index/scan.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

// One block of F_new in the shared (deterministically mirrored) state.
struct MrBlock {
  uint64_t offset = 0;
  uint64_t size = 0;
  bool resolved = false;   // matched (client knows the bytes)
  uint64_t src = 0;        // client-side source position in F_old
};

// Splits unresolved blocks for the next round; returns false when every
// block is either resolved or at minimum size (go literal).
bool SplitUnresolved(std::vector<MrBlock>& blocks, uint32_t min_size) {
  std::vector<MrBlock> next;
  bool any_active = false;
  for (const MrBlock& b : blocks) {
    if (b.resolved || b.size < 2 * min_size) {
      next.push_back(b);
      continue;
    }
    MrBlock left = b;
    left.size = (b.size + 1) / 2;
    MrBlock right = b;
    right.offset = b.offset + left.size;
    right.size = b.size - left.size;
    next.push_back(left);
    next.push_back(right);
    any_active = true;
  }
  blocks = std::move(next);
  return any_active;
}

}  // namespace

StatusOr<MultiroundResult> MultiroundSynchronize(
    ByteSpan outdated, ByteSpan current, const MultiroundParams& params,
    SimulatedChannel& channel, obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  if (params.start_block_size == 0 ||
      (params.start_block_size & (params.start_block_size - 1)) != 0 ||
      params.min_block_size == 0 ||
      params.weak_bits < 1 || params.weak_bits > 32 ||
      params.strong_bits < 0 || params.strong_bits > 64) {
    return Status::InvalidArgument("multiround: bad parameters");
  }
  ObservedSession scope(channel, obs, "multiround");
  MultiroundResult result;

  // Request: fingerprint for unchanged detection.
  obs::SetPhase(obs, obs::Phase::kHandshake);
  Fingerprint old_fp = FileFingerprint(outdated);
  channel.Send(Dir::kClientToServer, ByteSpan(old_fp.data(), old_fp.size()));
  FSYNC_ASSIGN_OR_RETURN(Bytes req, channel.Receive(Dir::kClientToServer));

  Fingerprint new_fp = FileFingerprint(current);
  // The request may be truncated in transit: check the size before
  // comparing, or std::equal reads past the end of a short message.
  bool unchanged = req.size() == new_fp.size() &&
                   std::equal(new_fp.begin(), new_fp.end(), req.begin());
  {
    BitWriter msg;
    msg.WriteBit(unchanged);
    msg.WriteBytes(ByteSpan(new_fp.data(), new_fp.size()));
    if (!unchanged) {
      msg.WriteVarint(current.size());
    }
    channel.Send(Dir::kServerToClient, msg.Finish());
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes hello, channel.Receive(Dir::kServerToClient));
  BitReader hello_in(hello);
  FSYNC_ASSIGN_OR_RETURN(bool is_unchanged, hello_in.ReadBit());
  if (is_unchanged) {
    // Guard against a corrupted "unchanged" bit: the echoed fingerprint
    // must match the local file.
    FSYNC_ASSIGN_OR_RETURN(Bytes echo, hello_in.ReadBytes(16));
    if (!std::equal(old_fp.begin(), old_fp.end(), echo.begin())) {
      return Status::DataLoss("multiround: unchanged reply mismatch");
    }
    result.reconstructed.assign(outdated.begin(), outdated.end());
    result.stats = channel.stats();
    return result;
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes fp_bytes, hello_in.ReadBytes(16));
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_new, hello_in.ReadVarint());
  if (n_new != current.size()) {
    return Status::Internal("multiround: size desync");
  }

  // Both sides mirror the block state deterministically.
  std::vector<MrBlock> server_blocks;
  std::vector<MrBlock> client_blocks;
  for (uint64_t off = 0; off < n_new; off += params.start_block_size) {
    MrBlock b;
    b.offset = off;
    b.size = std::min<uint64_t>(params.start_block_size, n_new - off);
    server_blocks.push_back(b);
    client_blocks.push_back(b);
  }

  // Scratch reused across rounds: the matcher's flat index and result
  // buffers, the server's hash batch, and the pending list all keep
  // their allocations instead of churning the allocator every round.
  struct Pending {
    size_t index;
    uint32_t weak;
    uint64_t strong;
    bool found = false;
    uint64_t pos = 0;
  };
  struct WeakStrong {
    uint32_t weak = 0;
    uint64_t strong = 0;
  };
  std::vector<Pending> pending;
  std::vector<const MrBlock*> to_hash;
  std::vector<WeakStrong> round_hashes;
  std::vector<uint32_t> scan_keys;
  std::vector<uint64_t> scan_pos;
  BlockIndex scan_scratch;
  ScanOptions scan_opts;
  scan_opts.num_threads = params.num_threads;

  bool more = !server_blocks.empty();
  while (more) {
    ++result.rounds;
    obs::SetRound(obs, static_cast<uint32_t>(result.rounds));
    const auto round_start = obs != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    // Server: one (weak, strong) hash per unresolved block. Hashes are
    // computed in parallel and serialized in block order, so the message
    // is identical for any thread count.
    obs::SetPhase(obs, obs::Phase::kCandidates);
    to_hash.clear();
    for (const MrBlock& b : server_blocks) {
      if (b.resolved || b.size > outdated.size()) {
        continue;  // oversized blocks cannot match; send nothing
      }
      to_hash.push_back(&b);
    }
    round_hashes.assign(to_hash.size(), WeakStrong{});
    // Strides of four so the strong hashes go through the interleaved
    // 4-lane MD5 (within a round most unresolved blocks share a size, so
    // groups usually qualify). Results land in block order either way.
    const size_t n_groups = (to_hash.size() + 3) / 4;
    par::ParallelFor(params.num_threads, n_groups, [&](size_t g) {
      const size_t begin = 4 * g;
      const size_t count = std::min<size_t>(4, to_hash.size() - begin);
      ByteSpan blocks[4];
      uint64_t strong[4];
      for (size_t k = 0; k < count; ++k) {
        blocks[k] = current.subspan(to_hash[begin + k]->offset,
                                    to_hash[begin + k]->size);
      }
      if (params.strong_bits > 0) {
        Md5HashBitsBatch(blocks, count, params.strong_bits, 0xA11, strong);
      }
      for (size_t k = 0; k < count; ++k) {
        round_hashes[begin + k].weak =
            AdlerScanHash::BlockKey(blocks[k], params.weak_bits);
        if (params.strong_bits > 0) {
          round_hashes[begin + k].strong = strong[k];
        }
      }
    });
    BitWriter hashes;
    for (const WeakStrong& h : round_hashes) {
      hashes.WriteBits(h.weak, params.weak_bits);
      if (params.strong_bits > 0) {
        hashes.WriteBits(h.strong, params.strong_bits);
      }
    }
    channel.Send(Dir::kServerToClient, hashes.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes hmsg, channel.Receive(Dir::kServerToClient));

    // Client: match via one rolling pass per distinct size.
    BitReader hin(hmsg);
    pending.clear();
    for (size_t i = 0; i < client_blocks.size(); ++i) {
      MrBlock& b = client_blocks[i];
      if (b.resolved || b.size > outdated.size()) {
        continue;
      }
      Pending p;
      p.index = i;
      FSYNC_ASSIGN_OR_RETURN(uint64_t w, hin.ReadBits(params.weak_bits));
      p.weak = static_cast<uint32_t>(w);
      p.strong = 0;
      if (params.strong_bits > 0) {
        FSYNC_ASSIGN_OR_RETURN(p.strong, hin.ReadBits(params.strong_bits));
      }
      pending.push_back(p);
    }
    for (const auto& [size, idxs] :
         GroupBySize(pending.size(),
                     [&](size_t k) {
                       return client_blocks[pending[k].index].size;
                     })) {
      scan_keys.resize(idxs.size());
      for (size_t j = 0; j < idxs.size(); ++j) {
        scan_keys[j] = pending[idxs[j]].weak;
      }
      const uint64_t block_size = size;
      const std::vector<size_t>& items = idxs;
      auto verify = [&](size_t j, uint64_t pos) {
        // Verify the strong bits locally before accepting.
        return params.strong_bits == 0 ||
               Md5::HashBits(outdated.subspan(pos, block_size),
                             params.strong_bits,
                             0xA11) == pending[items[j]].strong;
      };
      ScanForKeys(outdated, block_size, params.weak_bits, scan_keys, verify,
                  scan_pos, scan_opts, &scan_scratch);
      for (size_t j = 0; j < idxs.size(); ++j) {
        if (scan_pos[j] != kScanNoMatch) {
          pending[idxs[j]].found = true;
          pending[idxs[j]].pos = scan_pos[j];
        }
      }
    }

    // Client -> server: match bitmap (in pending order).
    BitWriter bitmap;
    for (const Pending& p : pending) {
      bitmap.WriteBit(p.found);
      if (p.found) {
        MrBlock& b = client_blocks[p.index];
        b.resolved = true;
        b.src = p.pos;
      }
    }
    obs::SetPhase(obs, obs::Phase::kVerification);
    channel.Send(Dir::kClientToServer, bitmap.Finish());
    FSYNC_ASSIGN_OR_RETURN(Bytes bmsg, channel.Receive(Dir::kClientToServer));
    BitReader bin(bmsg);
    for (MrBlock& b : server_blocks) {
      if (b.resolved || b.size > outdated.size()) {
        continue;
      }
      FSYNC_ASSIGN_OR_RETURN(bool hit, bin.ReadBit());
      b.resolved = hit;
    }

    // Both sides split identically.
    bool s_more = SplitUnresolved(server_blocks, params.min_block_size);
    bool c_more = SplitUnresolved(client_blocks, params.min_block_size);
    if (s_more != c_more) {
      return Status::Internal("multiround: state desync");
    }
    more = s_more;
    if (obs != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - round_start;
      obs->RecordRound(
          static_cast<uint32_t>(result.rounds),
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

  // Server: ship the unresolved regions literally.
  {
    Bytes literals;
    for (const MrBlock& b : server_blocks) {
      if (!b.resolved) {
        Append(literals, current.subspan(b.offset, b.size));
      }
    }
    Bytes payload = Compress(literals);
    BitWriter msg;
    msg.WriteBit(true);  // "compressed": the only mode sent
    msg.WriteVarint(payload.size());
    msg.WriteBytes(payload);
    obs::SetPhase(obs, obs::Phase::kLiterals);
    channel.Send(Dir::kServerToClient, msg.Finish());
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes lit_msg,
                         channel.Receive(Dir::kServerToClient));
  BitReader lin(lit_msg);
  FSYNC_ASSIGN_OR_RETURN(bool compressed, lin.ReadBit());
  FSYNC_ASSIGN_OR_RETURN(uint64_t payload_len, lin.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes payload, lin.ReadBytes(payload_len));
  if (!compressed) {
    return Status::DataLoss("multiround: uncompressed literals");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes literals, Decompress(payload));

  // Client: assemble.
  Bytes rebuilt;
  rebuilt.reserve(n_new);
  uint64_t lit_pos = 0;
  uint64_t matched_bytes = 0;
  for (const MrBlock& b : client_blocks) {
    if (b.resolved) {
      Append(rebuilt, outdated.subspan(b.src, b.size));
      matched_bytes += b.size;
    } else {
      if (lit_pos + b.size > literals.size()) {
        return Status::DataLoss("multiround: literal payload too short");
      }
      Append(rebuilt, ByteSpan(literals).subspan(lit_pos, b.size));
      lit_pos += b.size;
    }
  }
  result.matched_fraction =
      n_new == 0 ? 1.0 : static_cast<double>(matched_bytes) / n_new;

  Fingerprint got = FileFingerprint(rebuilt);
  if (!std::equal(got.begin(), got.end(), fp_bytes.begin())) {
    obs::SetPhase(obs, obs::Phase::kFallback);
    Bytes ask = {1};
    channel.Send(Dir::kClientToServer, ask);
    FSYNC_ASSIGN_OR_RETURN(Bytes ask_msg,
                           channel.Receive(Dir::kClientToServer));
    (void)ask_msg;
    Bytes full = Compress(current);
    channel.Send(Dir::kServerToClient, full);
    FSYNC_ASSIGN_OR_RETURN(Bytes full_msg,
                           channel.Receive(Dir::kServerToClient));
    FSYNC_ASSIGN_OR_RETURN(rebuilt, Decompress(full_msg));
    // Verify the fallback too: it crosses the same untrusted channel.
    Fingerprint fb = FileFingerprint(rebuilt);
    if (!std::equal(fb.begin(), fb.end(), fp_bytes.begin())) {
      return Status::DataLoss("multiround: fallback transfer mismatch");
    }
    result.fell_back_to_full_transfer = true;
  }
  result.reconstructed = std::move(rebuilt);
  result.stats = channel.stats();
  return result;
}

}  // namespace fsx
