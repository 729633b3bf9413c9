#include "fsync/zsync/zsync.h"

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

constexpr uint64_t kStrongSalt = 0x25A6C;

static_assert(ZsyncPlan::kMissing == kScanNoMatch,
              "scan results are assigned to plan.sources unconverted");

Status ValidateParams(const ZsyncParams& p) {
  if (p.block_size == 0 || p.weak_bits < 1 || p.weak_bits > 32 ||
      p.strong_bits < 1 || p.strong_bits > 64) {
    return Status::InvalidArgument("zsync: bad parameters");
  }
  return Status::Ok();
}

}  // namespace

std::vector<ZsyncPlan::Range> ZsyncPlan::Missing() const {
  std::vector<Range> out;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] != kMissing) {
      continue;
    }
    uint64_t begin = static_cast<uint64_t>(i) * block_size;
    uint64_t end = std::min<uint64_t>(begin + block_size, new_size);
    if (!out.empty() && out.back().begin + out.back().length == begin) {
      out.back().length += end - begin;  // coalesce adjacent blocks
    } else {
      out.push_back({begin, end - begin});
    }
  }
  return out;
}

double ZsyncPlan::CoveredFraction() const {
  if (new_size == 0) {
    return 1.0;
  }
  uint64_t missing = 0;
  for (const Range& r : Missing()) {
    missing += r.length;
  }
  return 1.0 - static_cast<double>(missing) / static_cast<double>(new_size);
}

StatusOr<Bytes> MakeZsyncControl(ByteSpan current,
                                 const ZsyncParams& params) {
  FSYNC_RETURN_IF_ERROR(ValidateParams(params));
  BitWriter out;
  out.WriteVarint(current.size());
  Fingerprint fp = FileFingerprint(current);
  out.WriteBytes(ByteSpan(fp.data(), fp.size()));
  out.WriteVarint(params.block_size);
  out.WriteBits(static_cast<uint64_t>(params.weak_bits), 6);
  out.WriteBits(static_cast<uint64_t>(params.strong_bits), 7);
  out.WriteBit(true);  // "ranges compressed": the only mode served

  // Per-block hashing is embarrassingly parallel; serialization stays in
  // block order, so the control file is identical for any thread count.
  const uint64_t bs = params.block_size;
  const size_t n_blocks = (current.size() + bs - 1) / bs;
  struct BlockHashes {
    uint32_t weak = 0;
    uint64_t strong = 0;
  };
  std::vector<BlockHashes> hashes(n_blocks);
  // Strides of four so the strong hashes go through the interleaved
  // 4-lane MD5 (all full blocks share `bs`; only the tail group falls
  // back to scalar). Results land in block order either way.
  const size_t n_groups = (n_blocks + 3) / 4;
  par::ParallelFor(params.num_threads, n_groups, [&](size_t g) {
    const size_t begin = 4 * g;
    const size_t count = std::min<size_t>(4, n_blocks - begin);
    ByteSpan blocks[4];
    uint64_t strong[4];
    for (size_t k = 0; k < count; ++k) {
      uint64_t off = (begin + k) * bs;
      blocks[k] =
          current.subspan(off, std::min<uint64_t>(bs, current.size() - off));
    }
    Md5HashBitsBatch(blocks, count, params.strong_bits, kStrongSalt, strong);
    for (size_t k = 0; k < count; ++k) {
      hashes[begin + k] = {
          static_cast<uint32_t>(TabledAdler::Truncate(
              TabledAdler::Hash(blocks[k]), params.weak_bits)),
          strong[k]};
    }
  });
  for (const BlockHashes& h : hashes) {
    out.WriteBits(h.weak, params.weak_bits);
    out.WriteBits(h.strong, params.strong_bits);
  }
  return out.Finish();
}

StatusOr<ZsyncPlan> PlanFromControl(ByteSpan outdated, ByteSpan control,
                                    int num_threads) {
  BitReader in(control);
  ZsyncPlan plan;
  FSYNC_ASSIGN_OR_RETURN(plan.new_size, in.ReadVarint());
  if (plan.new_size > (uint64_t{1} << 32)) {
    return Status::DataLoss("zsync: implausible size");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes fp, in.ReadBytes(16));
  std::copy(fp.begin(), fp.end(), plan.fingerprint.begin());
  FSYNC_ASSIGN_OR_RETURN(uint64_t bs, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(uint64_t weak_bits, in.ReadBits(6));
  FSYNC_ASSIGN_OR_RETURN(uint64_t strong_bits, in.ReadBits(7));
  FSYNC_ASSIGN_OR_RETURN(bool compressed, in.ReadBit());
  if (!compressed) {
    return Status::DataLoss("zsync: uncompressed ranges");
  }
  plan.block_size = static_cast<uint32_t>(bs);
  ZsyncParams params;
  params.block_size = plan.block_size;
  params.weak_bits = static_cast<int>(weak_bits);
  params.strong_bits = static_cast<int>(strong_bits);
  FSYNC_RETURN_IF_ERROR(ValidateParams(params));

  struct Pending {
    uint32_t weak = 0;
    uint64_t strong = 0;
  };
  uint64_t n_blocks =
      plan.new_size == 0
          ? 0
          : (plan.new_size + plan.block_size - 1) / plan.block_size;
  std::vector<Pending> blocks(n_blocks);
  for (Pending& p : blocks) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t w, in.ReadBits(params.weak_bits));
    FSYNC_ASSIGN_OR_RETURN(p.strong, in.ReadBits(params.strong_bits));
    p.weak = static_cast<uint32_t>(w);
  }
  plan.sources.assign(n_blocks, ZsyncPlan::kMissing);

  // Full blocks: one rolling pass over the outdated file (earliest weak +
  // strong match per block, via the shared matching core).
  ScanOptions scan_opts;
  scan_opts.num_threads = num_threads;
  std::vector<uint64_t> found;
  if (n_blocks > 0) {
    uint64_t full_blocks =
        plan.new_size / plan.block_size;  // tail handled below
    std::vector<uint32_t> keys(full_blocks);
    for (size_t i = 0; i < full_blocks; ++i) {
      keys[i] = blocks[i].weak;
    }
    ScanForKeys(
        outdated, plan.block_size, params.weak_bits, keys,
        [&](size_t i, uint64_t pos) {
          return Md5::HashBits(outdated.subspan(pos, plan.block_size),
                               params.strong_bits,
                               kStrongSalt) == blocks[i].strong;
        },
        found, scan_opts);
    for (size_t i = 0; i < full_blocks; ++i) {
      plan.sources[i] = found[i];  // kScanNoMatch == kMissing
    }
  }
  // Tail block: check every position of its exact (short) size.
  if (n_blocks > 0 && plan.new_size % plan.block_size != 0) {
    uint64_t tail_len = plan.new_size % plan.block_size;
    size_t i = n_blocks - 1;
    std::vector<uint32_t> keys = {blocks[i].weak};
    ScanForKeys(
        outdated, tail_len, params.weak_bits, keys,
        [&](size_t, uint64_t pos) {
          return Md5::HashBits(outdated.subspan(pos, tail_len),
                               params.strong_bits,
                               kStrongSalt) == blocks[i].strong;
        },
        found, scan_opts);
    plan.sources[i] = found[0];
  }
  return plan;
}

Bytes EncodeRangeRequest(const ZsyncPlan& plan) {
  std::vector<ZsyncPlan::Range> missing = plan.Missing();
  BitWriter out;
  out.WriteVarint(missing.size());
  uint64_t prev_end = 0;
  for (const ZsyncPlan::Range& r : missing) {
    out.WriteVarint(r.begin - prev_end);
    out.WriteVarint(r.length);
    prev_end = r.begin + r.length;
  }
  return out.Finish();
}

StatusOr<Bytes> ServeRanges(ByteSpan current, ByteSpan request) {
  BitReader in(request);
  FSYNC_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
  if (count > current.size() + 1) {
    return Status::DataLoss("zsync: implausible range count");
  }
  Bytes raw;
  uint64_t pos = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t gap, in.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
    pos += gap;
    if (pos + len > current.size()) {
      return Status::DataLoss("zsync: range out of bounds");
    }
    Append(raw, current.subspan(pos, len));
    pos += len;
  }
  return Compress(raw);
}

StatusOr<Bytes> ApplyZsync(ByteSpan outdated, const ZsyncPlan& plan,
                           ByteSpan payload) {
  FSYNC_ASSIGN_OR_RETURN(Bytes ranges, Decompress(payload));

  Bytes out;
  // `plan.new_size` comes from the (possibly corrupted) control file; cap
  // the speculative reservation so a bad header cannot force a huge
  // allocation before reassembly fails.
  out.reserve(std::min<uint64_t>(plan.new_size, uint64_t{16} << 20));
  size_t range_pos = 0;
  for (size_t i = 0; i < plan.sources.size(); ++i) {
    uint64_t begin = static_cast<uint64_t>(i) * plan.block_size;
    uint64_t len =
        std::min<uint64_t>(plan.block_size, plan.new_size - begin);
    if (plan.sources[i] == ZsyncPlan::kMissing) {
      if (range_pos + len > ranges.size()) {
        return Status::DataLoss("zsync: payload too short");
      }
      Append(out, ByteSpan(ranges).subspan(range_pos, len));
      range_pos += len;
    } else {
      if (plan.sources[i] + len > outdated.size()) {
        return Status::InvalidArgument("zsync: plan source out of bounds");
      }
      Append(out, outdated.subspan(plan.sources[i], len));
    }
  }
  Fingerprint got = FileFingerprint(out);
  if (!std::equal(got.begin(), got.end(), plan.fingerprint.begin())) {
    return Status::DataLoss("zsync: fingerprint mismatch");
  }
  return out;
}

StatusOr<ZsyncSyncResult> ZsyncSynchronize(ByteSpan outdated,
                                           ByteSpan current,
                                           const ZsyncParams& params,
                                           SimulatedChannel& channel,
                                           obs::SyncObserver* obs) {
  using Dir = SimulatedChannel::Direction;
  FSYNC_RETURN_IF_ERROR(ValidateParams(params));
  ObservedSession scope(channel, obs, "zsync");
  ZsyncSyncResult result;

  // 1. Client asks for the control file (one request byte: in a real
  //    deployment this is the HTTP GET of the .zsync file).
  obs::SetPhase(obs, obs::Phase::kHandshake);
  Bytes get = {0x5A};
  channel.Send(Dir::kClientToServer, get);
  FSYNC_ASSIGN_OR_RETURN(Bytes req, channel.Receive(Dir::kClientToServer));
  (void)req;

  // 2. Server publishes the control file (the per-block hash list — the
  //    candidate phase of this protocol).
  obs::SetPhase(obs, obs::Phase::kCandidates);
  FSYNC_ASSIGN_OR_RETURN(Bytes control, MakeZsyncControl(current, params));
  channel.Send(Dir::kServerToClient, control);

  // 3. Client matches it against its outdated copy and requests the
  //    missing byte ranges.
  FSYNC_ASSIGN_OR_RETURN(Bytes control_msg,
                         channel.Receive(Dir::kServerToClient));
  FSYNC_ASSIGN_OR_RETURN(
      ZsyncPlan plan,
      PlanFromControl(outdated, control_msg, params.num_threads));
  result.covered_fraction = plan.CoveredFraction();
  obs::SetPhase(obs, obs::Phase::kVerification);
  channel.Send(Dir::kClientToServer, EncodeRangeRequest(plan));

  // 4. Server serves the ranges (the HTTP range request).
  FSYNC_ASSIGN_OR_RETURN(Bytes range_req,
                         channel.Receive(Dir::kClientToServer));
  FSYNC_ASSIGN_OR_RETURN(Bytes ranges,
                         ServeRanges(current, range_req));
  obs::SetPhase(obs, obs::Phase::kLiterals);
  channel.Send(Dir::kServerToClient, ranges);

  // 5. Client reassembles and verifies. A mismatch (hash collision in the
  //    client-side matching) falls back to a verified full transfer.
  FSYNC_ASSIGN_OR_RETURN(Bytes payload,
                         channel.Receive(Dir::kServerToClient));
  auto rebuilt = ApplyZsync(outdated, plan, payload);
  if (rebuilt.ok()) {
    result.reconstructed = std::move(rebuilt).value();
    result.stats = channel.stats();
    return result;
  }

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
  FSYNC_ASSIGN_OR_RETURN(Bytes recovered, Decompress(full_msg));
  // Verify the fallback against the control file's fingerprint so a
  // corrupted transfer is rejected rather than silently accepted.
  Fingerprint fb = FileFingerprint(recovered);
  if (!std::equal(fb.begin(), fb.end(), plan.fingerprint.begin())) {
    return Status::DataLoss("zsync: fallback transfer mismatch");
  }
  result.reconstructed = std::move(recovered);
  result.fell_back_to_full_transfer = true;
  result.stats = channel.stats();
  return result;
}

}  // namespace fsx
