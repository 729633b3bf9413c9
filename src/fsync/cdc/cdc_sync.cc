#include "fsync/cdc/cdc_sync.h"

#include "fsync/compress/codec.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/hash/md5.h"
#include "fsync/index/block_index.h"
#include "fsync/par/thread_pool.h"
#include "fsync/util/bit_io.h"

namespace fsx {

namespace {

uint64_t ChunkHash(ByteSpan data, const Chunk& c, uint32_t hash_bytes) {
  return Md5::HashBits(data.subspan(c.offset, c.size), 8 * hash_bytes,
                       /*salt=*/0x9DC);
}

// Hashes every chunk of `data`, fanning out across worker threads; the
// returned vector is in chunk order regardless of thread count.
std::vector<uint64_t> HashChunks(ByteSpan data,
                                 const std::vector<Chunk>& chunks,
                                 uint32_t hash_bytes, int num_threads) {
  std::vector<uint64_t> hashes(chunks.size());
  par::ParallelFor(num_threads, chunks.size(), [&](size_t i) {
    hashes[i] = ChunkHash(data, chunks[i], hash_bytes);
  });
  return hashes;
}

}  // namespace

StatusOr<CdcSyncResult> CdcSynchronize(ByteSpan outdated, ByteSpan current,
                                       const CdcSyncParams& params,
                                       SimulatedChannel& channel,
                                       obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  if (params.hash_bytes == 0 || params.hash_bytes > 8) {
    return Status::InvalidArgument("cdc: hash_bytes must be in [1, 8]");
  }
  ObservedSession scope(channel, obs, "cdc");
  CdcSyncResult result;

  // Client announces its fingerprint (unchanged-file detection).
  obs::SetPhase(obs, obs::Phase::kHandshake);
  Fingerprint old_fp = FileFingerprint(outdated);
  channel.Send(Dir::kClientToServer, ByteSpan(old_fp.data(), old_fp.size()));
  FSYNC_ASSIGN_OR_RETURN(Bytes req, channel.Receive(Dir::kClientToServer));

  // Server: chunk the current file and send fingerprint + chunk hashes.
  Fingerprint new_fp = FileFingerprint(current);
  // The request may be truncated in transit: check the size before
  // comparing, or std::equal reads past the end of a short message.
  bool unchanged = req.size() == new_fp.size() &&
                   std::equal(new_fp.begin(), new_fp.end(), req.begin());
  std::vector<Chunk> chunks = CdcChunk(current, params.chunking);
  result.chunks_total = chunks.size();
  {
    BitWriter msg;
    msg.WriteBit(unchanged);
    msg.WriteBytes(ByteSpan(new_fp.data(), new_fp.size()));
    if (!unchanged) {
      msg.WriteVarint(chunks.size());
      std::vector<uint64_t> hashes = HashChunks(
          current, chunks, params.hash_bytes, params.num_threads);
      for (size_t i = 0; i < chunks.size(); ++i) {
        msg.WriteVarint(chunks[i].size);
        msg.WriteBits(hashes[i], 8 * params.hash_bytes);
      }
    }
    // The offer is dominated by the per-chunk hash list (candidates).
    obs::SetPhase(obs, obs::Phase::kCandidates);
    channel.Send(Dir::kServerToClient, msg.Finish());
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes offer, channel.Receive(Dir::kServerToClient));
  BitReader offer_in(offer);
  FSYNC_ASSIGN_OR_RETURN(bool is_unchanged, offer_in.ReadBit());
  FSYNC_ASSIGN_OR_RETURN(Bytes fp_bytes, offer_in.ReadBytes(16));
  if (is_unchanged) {
    // Guard against a corrupted "unchanged" bit: the echoed fingerprint
    // must match the local file.
    if (!std::equal(old_fp.begin(), old_fp.end(), fp_bytes.begin())) {
      return Status::DataLoss("cdc: unchanged reply mismatch");
    }
    result.reconstructed.assign(outdated.begin(), outdated.end());
    result.stats = channel.stats();
    return result;
  }
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_chunks, offer_in.ReadVarint());
  if (n_chunks > offer.size()) {
    return Status::DataLoss("cdc: implausible chunk count");
  }

  // Client: index its own chunks by hash, then mark which offered chunks
  // it can source locally. FindFirst keeps the old `emplace` semantics:
  // the first chunk inserted with a hash wins.
  std::vector<Chunk> own = CdcChunk(outdated, params.chunking);
  std::vector<uint64_t> own_hashes =
      HashChunks(outdated, own, params.hash_bytes, params.num_threads);
  BlockIndex index;
  index.Reserve(own.size());
  for (size_t i = 0; i < own.size(); ++i) {
    index.Insert(own_hashes[i], 0, static_cast<uint32_t>(i));
  }

  struct Offered {
    uint64_t size = 0;
    uint64_t hash = 0;
    bool have = false;
    Chunk local;
  };
  std::vector<Offered> offered(n_chunks);
  BitWriter have_msg;
  for (uint64_t i = 0; i < n_chunks; ++i) {
    FSYNC_ASSIGN_OR_RETURN(offered[i].size, offer_in.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(offered[i].hash,
                           offer_in.ReadBits(8 * params.hash_bytes));
    const BlockIndex::Entry* e = index.FindFirst(offered[i].hash);
    // The size must match too, or reconstruction would misalign.
    if (e != nullptr && own[e->idx].size == offered[i].size) {
      offered[i].have = true;
      offered[i].local = own[e->idx];
    }
    have_msg.WriteBit(offered[i].have);
  }
  obs::SetPhase(obs, obs::Phase::kVerification);
  channel.Send(Dir::kClientToServer, have_msg.Finish());
  FSYNC_ASSIGN_OR_RETURN(Bytes have, channel.Receive(Dir::kClientToServer));

  // Server: send the chunks the client lacks.
  {
    BitReader have_in(have);
    Bytes missing;
    for (uint64_t i = 0; i < n_chunks; ++i) {
      FSYNC_ASSIGN_OR_RETURN(bool client_has, have_in.ReadBit());
      if (!client_has) {
        Append(missing, current.subspan(chunks[i].offset, chunks[i].size));
      }
    }
    Bytes payload = Compress(missing);
    BitWriter msg;
    msg.WriteBit(true);  // "compressed": the only mode sent
    msg.WriteVarint(payload.size());
    msg.WriteBytes(payload);
    obs::SetPhase(obs, obs::Phase::kLiterals);
    channel.Send(Dir::kServerToClient, msg.Finish());
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes data_msg,
                         channel.Receive(Dir::kServerToClient));

  // Client: reassemble.
  BitReader data_in(data_msg);
  FSYNC_ASSIGN_OR_RETURN(bool compressed, data_in.ReadBit());
  FSYNC_ASSIGN_OR_RETURN(uint64_t payload_len, data_in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes payload, data_in.ReadBytes(payload_len));
  if (!compressed) {
    return Status::DataLoss("cdc: uncompressed missing chunks");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes missing, Decompress(payload));

  Bytes rebuilt;
  size_t miss_pos = 0;
  for (const Offered& o : offered) {
    if (o.have) {
      Append(rebuilt, outdated.subspan(o.local.offset, o.local.size));
    } else {
      if (miss_pos + o.size > missing.size()) {
        return Status::DataLoss("cdc: missing-chunk payload too short");
      }
      Append(rebuilt, ByteSpan(missing).subspan(miss_pos, o.size));
      miss_pos += o.size;
      ++result.chunks_missing;
    }
  }

  Fingerprint got = FileFingerprint(rebuilt);
  if (!std::equal(got.begin(), got.end(), fp_bytes.begin())) {
    // Chunk-hash collision: fall back to a compressed full transfer.
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
      return Status::DataLoss("cdc: fallback transfer mismatch");
    }
    result.fell_back_to_full_transfer = true;
  }
  result.reconstructed = std::move(rebuilt);
  result.stats = channel.stats();
  return result;
}

}  // namespace fsx
