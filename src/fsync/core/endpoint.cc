#include "fsync/core/endpoint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "fsync/compress/codec.h"
#include "fsync/delta/delta.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/index/scan.h"

namespace fsx {

namespace core_internal {

namespace {

// Width of global candidate hashes for this session: enough bits that a
// false positive costs ~2^-extra per transmitted hash (paper Section 5.2).
int SessionHashBits(uint64_t old_size, const SyncConfig& config) {
  int bits = std::bit_width(std::max<uint64_t>(old_size, 1)) +
             config.global_extra_bits;
  return std::clamp(bits, 8, 32);
}

uint64_t VerifySalt(int round, int batch, bool stage_a) {
  return (uint64_t{0xF5A5} << 32) | (static_cast<uint64_t>(round) << 9) |
         (static_cast<uint64_t>(stage_a) << 8) |
         static_cast<uint64_t>(batch);
}

// Unpacks a wire hash value into a low-bits-meaningful AdlerPair, the
// inverse of TabledAdler::Truncate.
AdlerPair UnpackPair(uint32_t value, int num_bits) {
  int a_bits = num_bits / 2;
  int b_bits = num_bits - a_bits;
  uint16_t a = static_cast<uint16_t>(
      a_bits > 0 ? value & ((1u << a_bits) - 1) : 0);
  uint16_t b = static_cast<uint16_t>(
      (value >> a_bits) & ((b_bits >= 32 ? ~0u : (1u << b_bits) - 1)));
  return {a, b};
}

}  // namespace

// 64-bit truncated MD5 of one repair region (degradation-ladder rung 2).
static uint64_t RegionHash(ByteSpan region) {
  Md5 h;
  h.Update(region);
  Md5Digest d = h.Finish();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(d[i]) << (8 * i);
  }
  return v;
}

uint64_t GroupVerifyHash(ByteSpan file, const std::vector<size_t>& members,
                         const BlockLedger& ledger, bool client_side,
                         int verify_bits, uint64_t salt) {
  Md5 h;
  uint8_t salt_bytes[8];
  for (int i = 0; i < 8; ++i) {
    salt_bytes[i] = static_cast<uint8_t>(salt >> (8 * i));
  }
  h.Update(ByteSpan(salt_bytes, 8));
  for (size_t id : members) {
    const Block& b = ledger.block(id);
    uint64_t pos = client_side ? b.match_pos : b.offset;
    h.Update(file.subspan(pos, b.size));
  }
  Md5Digest d = h.Finish();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(d[i]) << (8 * i);
  }
  return verify_bits >= 64 ? v : v & ((uint64_t{1} << verify_bits) - 1);
}

void GroupVerifyHashes(ByteSpan file, const std::vector<VerifyGroup>& groups,
                       const BlockLedger& ledger, bool client_side,
                       int verify_bits, uint64_t salt,
                       std::vector<uint64_t>& out) {
  // Bytes gathered per run of groups; a single group larger than this
  // forms a run of its own.
  constexpr uint64_t kGatherBytes = 64 * 1024;
  assert(salt != 0);
  out.resize(groups.size());
  auto member = [&](size_t id) {
    const Block& b = ledger.block(id);
    return file.subspan(client_side ? b.match_pos : b.offset, b.size);
  };
  Bytes gather;
  std::vector<ByteSpan> spans;
  // (index in `spans`, end offset in `gather`) of each gathered group.
  std::vector<std::pair<size_t, size_t>> gathered;
  for (size_t begin = 0; begin < groups.size();) {
    gather.clear();
    spans.clear();
    gathered.clear();
    size_t end = begin;
    for (; end < groups.size(); ++end) {
      const std::vector<size_t>& members = groups[end].members;
      if (members.size() == 1) {
        spans.push_back(member(members[0]));  // read in place
        continue;
      }
      uint64_t bytes = 0;
      for (size_t id : members) {
        bytes += ledger.block(id).size;
      }
      if (!gathered.empty() && gather.size() + bytes > kGatherBytes) {
        break;
      }
      for (size_t id : members) {
        Append(gather, member(id));
      }
      gathered.emplace_back(spans.size(), gather.size());
      spans.emplace_back();  // set below, once `gather` stops growing
    }
    size_t from = 0;
    for (const auto& [i, to] : gathered) {
      spans[i] = ByteSpan(gather.data() + from, to - from);
      from = to;
    }
    Md5HashBitsBatch(spans.data(), spans.size(), verify_bits, salt,
                     out.data() + begin);
    begin = end;
  }
}

Bytes BuildReference(ByteSpan file, const BlockLedger& ledger,
                     bool client_side, std::vector<KnownRun>* runs) {
  Bytes ref;
  for (const ConfirmedRange& r : ledger.ConfirmedRanges()) {
    uint64_t pos = client_side ? r.src : r.begin;
    uint64_t length = r.end - r.begin;
    if (runs != nullptr) {
      if (!runs->empty() &&
          runs->back().target_pos + runs->back().length == r.begin) {
        runs->back().length += length;
      } else {
        runs->push_back({r.begin, ref.size(), length});
      }
    }
    Append(ref, file.subspan(pos, length));
  }
  return ref;
}

bool EndpointBase::PrepareNextRound() {
  if (!map_alive_ || !BudgetAllowsAnotherRound()) {
    map_alive_ = false;
    return false;
  }
  for (;;) {
    RoundPlan plan = ledger_->BuildPlan();
    if (!plan.continuation.empty() || !plan.sent_global.empty() ||
        !plan.derived.empty()) {
      round_ = RoundState{};
      ledger_->MarkPlanned(plan);
      if (config_.continuation_first && !plan.continuation.empty() &&
          (!plan.sent_global.empty() || !plan.derived.empty())) {
        // Stage A: continuation probes only; global hashes wait until
        // the probe results are known.
        round_.in_stage_a = true;
        round_.stage_b_sent = std::move(plan.sent_global);
        round_.stage_b_derived = std::move(plan.derived);
        plan.sent_global.clear();
        plan.derived.clear();
      }
      round_.plan = std::move(plan);
      InstallCandidateOrder();
      ++rounds_executed_;
      return true;
    }
    if (!ledger_->AdvanceRound()) {
      map_alive_ = false;
      return false;
    }
  }
}

void EndpointBase::InstallCandidateOrder() {
  round_.candidate_order = round_.plan.CandidateOrder();
  round_.candidate_is_cont.assign(round_.candidate_order.size(), false);
  for (size_t i = 0; i < round_.plan.continuation.size(); ++i) {
    round_.candidate_is_cont[i] = true;
  }
  round_.batch = 0;
  round_.matched_ids.clear();
  round_.matched_is_cont.clear();
  round_.pending_groups.clear();
}

bool EndpointBase::EnterStageB() {
  round_.in_stage_a = false;
  if (!BudgetAllowsAnotherRound()) {
    return false;
  }
  RoundPlan plan;
  for (size_t id : round_.stage_b_sent) {
    if (!ledger_->SiblingConfirmed(id)) {
      plan.sent_global.push_back(id);
    }
  }
  // Derived blocks always keep their (global, transmitted) left-sibling
  // pair partner, so they survive the filter together.
  plan.derived = std::move(round_.stage_b_derived);
  round_.stage_b_sent.clear();
  if (plan.sent_global.empty() && plan.derived.empty()) {
    return false;
  }
  round_.plan = std::move(plan);
  InstallCandidateOrder();
  return true;
}

}  // namespace core_internal

using core_internal::BuildReference;
using core_internal::GroupVerifyHashes;
using core_internal::RegionHash;
using core_internal::SessionHashBits;
using core_internal::UnpackPair;
using core_internal::VerifySalt;

namespace {

// Region layout shared by both repair endpoints.
uint64_t RepairRegionSize(const SyncConfig& config) {
  return std::max<uint64_t>(config.repair.region_size, 1);
}

uint64_t RepairRegionCount(uint64_t file_size, uint64_t region) {
  return file_size == 0 ? 0 : (file_size + region - 1) / region;
}

}  // namespace

// ---------------------------------------------------------------------
// Server endpoint.
// ---------------------------------------------------------------------

SyncServerEndpoint::SyncServerEndpoint(ByteSpan f_new,
                                       const SyncConfig& config,
                                       const Fingerprint* fp_new)
    : EndpointBase(config),
      f_new_(f_new),
      fp_new_(fp_new != nullptr ? *fp_new : FileFingerprint(f_new)) {}

StatusOr<Bytes> SyncServerEndpoint::OnRequest(ByteSpan msg) {
  ++client_msgs_;
  BitReader in(msg);
  FSYNC_ASSIGN_OR_RETURN(Bytes fp_old, in.ReadBytes(16));
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_old, in.ReadVarint());
  BitWriter out;
  StartFresh(ByteSpan(fp_old.data(), fp_old.size()), n_old, out);
  return out.Finish();
}

void SyncServerEndpoint::StartFresh(ByteSpan fp_old, uint64_t n_old,
                                    BitWriter& out) {
  old_size_ = n_old;
  bool unchanged = std::equal(fp_new_.begin(), fp_new_.end(), fp_old.begin());
  out.WriteBit(unchanged);
  if (unchanged) {
    // Echo the fingerprint so a corrupted "unchanged" bit cannot make the
    // client silently keep a stale file.
    out.WriteBytes(ByteSpan(fp_new_.data(), fp_new_.size()));
    done_ = true;
    return;
  }
  out.WriteVarint(f_new_.size());
  out.WriteBytes(ByteSpan(fp_new_.data(), fp_new_.size()));

  ledger_.emplace(f_new_.size(), old_size_, config_);
  hash_bits_ = SessionHashBits(old_size_, config_);
  map_alive_ = !ledger_->active().empty();
  if (PrepareNextRound()) {
    AppendRoundHashes(out);
  } else {
    AppendDelta(out);
  }
}

StatusOr<Bytes> SyncServerEndpoint::OnResumeRequest(ByteSpan msg) {
  ++client_msgs_;
  BitReader in(msg);
  FSYNC_ASSIGN_OR_RETURN(Bytes fp_old, in.ReadBytes(16));
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_old, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes fp_new, in.ReadBytes(16));
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_new, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(uint64_t digest, in.ReadBits(64));
  FSYNC_ASSIGN_OR_RETURN(uint64_t rounds, in.ReadVarint());
  if (rounds > (1u << 20)) {
    return Status::DataLoss("resume: implausible round count");
  }
  SessionCheckpoint cp;
  cp.old_size = n_old;
  cp.new_size = n_new;
  cp.config_digest = digest;
  cp.completed_rounds = static_cast<int>(rounds);
  for (int r = 0; r < cp.completed_rounds; ++r) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
    if (count > (uint64_t{1} << 28)) {
      return Status::DataLoss("resume: implausible confirm count");
    }
    for (uint64_t i = 0; i < count; ++i) {
      FSYNC_ASSIGN_OR_RETURN(uint64_t id, in.ReadVarint());
      cp.confirms.push_back({r, static_cast<uint32_t>(id), 0});
    }
  }

  // The checkpoint must describe *this* target file and wire config;
  // anything stale means the saved progress is meaningless, so fall back
  // to a fresh session (embedded in the same reply).
  bool ok = std::equal(fp_new_.begin(), fp_new_.end(), fp_new.begin()) &&
            n_new == f_new_.size() && digest == ConfigWireDigest(config_) &&
            !config_.continuation_first;
  if (ok) {
    BlockLedger replayed(f_new_.size(), n_old, config_);
    auto alive_or = ReplayCheckpoint(cp, config_, /*server_side=*/true,
                                     f_new_, replayed);
    if (alive_or.ok()) {
      BitWriter out;
      out.WriteBit(true);
      old_size_ = n_old;
      ledger_.emplace(std::move(replayed));
      hash_bits_ = SessionHashBits(old_size_, config_);
      map_alive_ = *alive_or;
      resumed_ = true;
      if (PrepareNextRound()) {
        AppendRoundHashes(out);
      } else {
        AppendDelta(out);
      }
      return out.Finish();
    }
  }
  BitWriter out;
  out.WriteBit(false);
  StartFresh(ByteSpan(fp_old.data(), fp_old.size()), n_old, out);
  return out.Finish();
}

StatusOr<Bytes> SyncServerEndpoint::OnRepairRequest(ByteSpan msg) {
  const uint64_t region = RepairRegionSize(config_);
  const uint64_t count = RepairRegionCount(f_new_.size(), region);
  BitReader in(msg);
  std::vector<uint64_t> bad;
  for (uint64_t i = 0; i < count; ++i) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t got, in.ReadBits(64));
    uint64_t off = i * region;
    uint64_t len = std::min(region, f_new_.size() - off);
    if (got != RegionHash(f_new_.subspan(off, len))) {
      bad.push_back(i);
    }
  }
  repair_bad_regions_ = static_cast<uint32_t>(bad.size());

  BitWriter out;
  const bool use_full =
      count == 0 || static_cast<double>(bad.size()) >
                        config_.repair.max_bad_fraction *
                            static_cast<double>(count);
  out.WriteBit(use_full);
  if (use_full) {
    repair_used_full_ = true;
    Bytes full = Compress(f_new_);
    out.WriteVarint(full.size());
    out.WriteBytes(full);
    return out.Finish();
  }
  size_t next_bad = 0;
  for (uint64_t i = 0; i < count; ++i) {
    bool is_bad = next_bad < bad.size() && bad[next_bad] == i;
    out.WriteBit(is_bad);
    if (is_bad) {
      ++next_bad;
    }
  }
  Bytes literals;
  for (uint64_t i : bad) {
    uint64_t off = i * region;
    Append(literals, f_new_.subspan(off, std::min(region, f_new_.size() - off)));
  }
  Bytes comp = Compress(literals);
  out.WriteVarint(comp.size());
  out.WriteBytes(comp);
  return out.Finish();
}

StatusOr<Bytes> SyncServerEndpoint::OnClientMessage(ByteSpan msg) {
  ++client_msgs_;
  BitReader in(msg);
  if (round_.batch == 0) {
    // Round reply: candidate bitmap + first verification batch.
    round_.matched_ids.clear();
    round_.matched_is_cont.clear();
    for (size_t i = 0; i < round_.candidate_order.size(); ++i) {
      FSYNC_ASSIGN_OR_RETURN(bool hit, in.ReadBit());
      if (hit) {
        round_.matched_ids.push_back(round_.candidate_order[i]);
        round_.matched_is_cont.push_back(round_.candidate_is_cont[i]);
      }
    }
    round_.pending_groups =
        ledger_->BuildGroups(round_.matched_ids, round_.matched_is_cont,
                             EffectiveVerify(config_, ledger_->round()));
    round_.batch = 1;
  } else {
    ++round_.batch;
  }
  return ProcessBatch(in);
}

Bytes SyncServerEndpoint::OnFallbackRequest() const {
  return Compress(f_new_);
}

StatusOr<Bytes> SyncServerEndpoint::Handle(SessionMsg kind, ByteSpan msg) {
  switch (kind) {
    case SessionMsg::kRequest:
      return OnRequest(msg);
    case SessionMsg::kResumeRequest:
      return OnResumeRequest(msg);
    case SessionMsg::kRoundReply:
      return OnClientMessage(msg);
    case SessionMsg::kRepairRequest:
      return OnRepairRequest(msg);
    case SessionMsg::kFallbackRequest:
      return OnFallbackRequest();
  }
  return Status::InvalidArgument("unknown session message kind");
}

StatusOr<Bytes> SyncServerEndpoint::ProcessBatch(BitReader& in) {
  const VerifyConfig vc = EffectiveVerify(config_, ledger_->round());
  uint64_t salt =
      VerifySalt(ledger_->round(), round_.batch, round_.in_stage_a);

  std::vector<uint64_t> want;
  GroupVerifyHashes(f_new_, round_.pending_groups, *ledger_,
                    /*client_side=*/false, vc.verify_bits, salt, want);
  BitWriter out;
  std::vector<VerifyGroup> failed_multi;
  for (size_t i = 0; i < round_.pending_groups.size(); ++i) {
    const VerifyGroup& g = round_.pending_groups[i];
    FSYNC_ASSIGN_OR_RETURN(uint64_t got, in.ReadBits(vc.verify_bits));
    bool pass = got == want[i];
    out.WriteBit(pass);
    if (pass) {
      for (size_t id : g.members) {
        ledger_->Confirm(id, 0);
      }
    } else if (g.members.size() > 1) {
      failed_multi.push_back(g);
    }
  }

  if (!failed_multi.empty() && round_.batch < vc.max_batches &&
      BudgetAllowsSalvage()) {
    round_.pending_groups = SplitGroups(failed_multi);
    return out.Finish();  // expect a salvage message next
  }

  if (round_.in_stage_a && EnterStageB()) {
    AppendRoundHashes(out);
    return out.Finish();
  }
  FinishRound();
  if (PrepareNextRound()) {
    AppendRoundHashes(out);
  } else {
    AppendDelta(out);
  }
  return out.Finish();
}

void SyncServerEndpoint::AppendRoundHashes(BitWriter& out) {
  const int cont_bits = EffectiveContinuationBits(config_, ledger_->round());
  for (size_t id : round_.plan.continuation) {
    Block& b = ledger_->block(id);
    AdlerPair pair = TabledAdler::Hash(f_new_.subspan(b.offset, b.size));
    out.WriteBits(TabledAdler::Truncate(pair, cont_bits), cont_bits);
  }
  for (size_t id : round_.plan.sent_global) {
    Block& b = ledger_->block(id);
    b.pair = TabledAdler::Hash(f_new_.subspan(b.offset, b.size));
    b.pair_known = true;
    out.WriteBits(TabledAdler::Truncate(b.pair, hash_bits_), hash_bits_);
  }
  for (size_t id : round_.plan.derived) {
    Block& b = ledger_->block(id);
    b.pair = TabledAdler::Hash(f_new_.subspan(b.offset, b.size));
    b.pair_known = true;  // the client derives it; no bits on the wire
  }
}

Bytes SyncServerEndpoint::DeltaReference(std::vector<KnownRun>* runs) const {
  runs->clear();
  if (!ledger_.has_value()) {
    return {};
  }
  return BuildReference(f_new_, *ledger_, /*client_side=*/false, runs);
}

void SyncServerEndpoint::AppendDelta(BitWriter& out) {
  std::vector<KnownRun> runs;
  Bytes ref = DeltaReference(&runs);
  auto delta_or = DeltaEncode(config_.delta_codec, ref, f_new_, runs);
  // The codecs only fail on invalid arguments, and the runs are read from
  // f_new_ itself, so this cannot fail.
  Bytes delta = std::move(delta_or).value();
  out.WriteVarint(delta.size());
  out.WriteBytes(delta);
  delta_payload_bytes_ = delta.size();
  done_ = true;
}

// ---------------------------------------------------------------------
// Client endpoint.
// ---------------------------------------------------------------------

SyncClientEndpoint::SyncClientEndpoint(ByteSpan f_old,
                                       const SyncConfig& config,
                                       const Fingerprint* fp_old)
    : EndpointBase(config),
      f_old_(f_old),
      fp_old_(fp_old != nullptr ? *fp_old : FileFingerprint(f_old)) {}

Bytes SyncClientEndpoint::MakeRequest() {
  ++client_msgs_;
  BitWriter out;
  out.WriteBytes(ByteSpan(fp_old_.data(), fp_old_.size()));
  out.WriteVarint(f_old_.size());
  return out.Finish();
}

Status SyncClientEndpoint::InstallCheckpoint(const SessionCheckpoint& cp) {
  if (config_.continuation_first) {
    return Status::FailedPrecondition(
        "checkpoint: resume unsupported with continuation_first");
  }
  if (cp.old_size != f_old_.size()) {
    return Status::FailedPrecondition("checkpoint: old file size changed");
  }
  if (fp_old_ != cp.fp_old) {
    return Status::FailedPrecondition("checkpoint: old file changed");
  }
  if (cp.config_digest != ConfigWireDigest(config_)) {
    return Status::FailedPrecondition("checkpoint: config drift");
  }
  // Trial replay: guarantees OnResumeReply cannot fail on our own data,
  // and rejects a checkpoint corrupted in ways the CRC cannot see.
  BlockLedger trial(cp.new_size, cp.old_size, config_);
  FSYNC_RETURN_IF_ERROR(ReplayCheckpoint(cp, config_, /*server_side=*/false,
                                         ByteSpan(), trial)
                            .status());
  pending_resume_ = cp;
  return Status::Ok();
}

Bytes SyncClientEndpoint::MakeResumeRequest() {
  ++client_msgs_;
  const SessionCheckpoint& cp = *pending_resume_;
  BitWriter out;
  out.WriteBytes(ByteSpan(cp.fp_old.data(), cp.fp_old.size()));
  out.WriteVarint(cp.old_size);
  out.WriteBytes(ByteSpan(cp.fp_new.data(), cp.fp_new.size()));
  out.WriteVarint(cp.new_size);
  out.WriteBits(cp.config_digest, 64);
  out.WriteVarint(static_cast<uint64_t>(cp.completed_rounds));
  size_t i = 0;
  for (int r = 0; r < cp.completed_rounds; ++r) {
    size_t j = i;
    while (j < cp.confirms.size() && cp.confirms[j].round == r) {
      ++j;
    }
    out.WriteVarint(j - i);
    for (; i < j; ++i) {
      out.WriteVarint(cp.confirms[i].id);
    }
  }
  return out.Finish();
}

StatusOr<std::optional<Bytes>> SyncClientEndpoint::OnResumeReply(
    ByteSpan msg) {
  if (observer_ != nullptr) {
    msg_start_ = std::chrono::steady_clock::now();
  }
  started_ = true;
  BitReader in(msg);
  FSYNC_ASSIGN_OR_RETURN(bool accepted, in.ReadBit());
  if (!accepted) {
    pending_resume_.reset();
    return StartFromHeader(in);
  }
  const SessionCheckpoint cp = std::move(*pending_resume_);
  pending_resume_.reset();
  fp_new_ = cp.fp_new;
  ledger_.emplace(cp.new_size, f_old_.size(), config_);
  hash_bits_ = SessionHashBits(f_old_.size(), config_);
  FSYNC_ASSIGN_OR_RETURN(
      bool alive, ReplayCheckpoint(cp, config_, /*server_side=*/false,
                                   ByteSpan(), *ledger_));
  map_alive_ = alive;
  resumed_ = true;
  completed_rounds_ = cp.completed_rounds;
  confirm_log_ = cp.confirms;
  pair_log_ = cp.pairs;
  if (PrepareNextRound()) {
    return ReadRoundAndReply(in);
  }
  FSYNC_RETURN_IF_ERROR(ReadDelta(in));
  return std::optional<Bytes>();
}

SessionCheckpoint SyncClientEndpoint::MakeCheckpoint() const {
  SessionCheckpoint cp;
  cp.fp_old = fp_old_;
  cp.fp_new = fp_new_;
  cp.old_size = f_old_.size();
  cp.new_size = ledger_.has_value() ? ledger_->new_size() : 0;
  cp.config_digest = ConfigWireDigest(config_);
  cp.completed_rounds = completed_rounds_;
  for (const SessionCheckpoint::ConfirmEntry& e : confirm_log_) {
    if (e.round < completed_rounds_) {
      cp.confirms.push_back(e);
    }
  }
  for (const SessionCheckpoint::PairEntry& e : pair_log_) {
    if (e.round < completed_rounds_) {
      cp.pairs.push_back(e);
    }
  }
  return cp;
}

StatusOr<std::optional<Bytes>> SyncClientEndpoint::StartFromHeader(
    BitReader& in) {
  FSYNC_ASSIGN_OR_RETURN(bool unchanged, in.ReadBit());
  if (unchanged) {
    FSYNC_ASSIGN_OR_RETURN(Bytes echo, in.ReadBytes(16));
    if (!std::equal(fp_old_.begin(), fp_old_.end(), echo.begin())) {
      return Status::DataLoss(
          "session: unchanged reply does not match local file");
    }
    result_.assign(f_old_.begin(), f_old_.end());
    unchanged_ = true;
    done_ = true;
    return std::optional<Bytes>();
  }
  FSYNC_ASSIGN_OR_RETURN(uint64_t n_new, in.ReadVarint());
  if (n_new > (uint64_t{1} << 32)) {
    return Status::DataLoss("session: implausible file size");
  }
  FSYNC_ASSIGN_OR_RETURN(Bytes fp, in.ReadBytes(16));
  std::copy(fp.begin(), fp.end(), fp_new_.begin());

  ledger_.emplace(n_new, f_old_.size(), config_);
  hash_bits_ = SessionHashBits(f_old_.size(), config_);
  map_alive_ = !ledger_->active().empty();
  if (PrepareNextRound()) {
    return ReadRoundAndReply(in);
  }
  FSYNC_RETURN_IF_ERROR(ReadDelta(in));
  return std::optional<Bytes>();
}

StatusOr<std::optional<Bytes>> SyncClientEndpoint::OnServerMessage(
    ByteSpan msg) {
  if (observer_ != nullptr) {
    msg_start_ = std::chrono::steady_clock::now();
  }
  BitReader in(msg);
  if (!started_) {
    started_ = true;
    return StartFromHeader(in);
  }

  // Verification results for the batch we just sent.
  const VerifyConfig vc = EffectiveVerify(config_, ledger_->round());
  std::vector<VerifyGroup> failed_multi;
  for (const VerifyGroup& g : round_.pending_groups) {
    FSYNC_ASSIGN_OR_RETURN(bool pass, in.ReadBit());
    if (pass) {
      for (size_t id : g.members) {
        uint64_t src = ledger_->block(id).match_pos;
        ledger_->Confirm(id, src);
        confirm_log_.push_back(
            {ledger_->round(), static_cast<uint32_t>(id), src});
      }
      if (!trace_.empty()) {
        trace_.back().confirmed += static_cast<uint32_t>(g.members.size());
      }
    } else if (g.members.size() > 1) {
      failed_multi.push_back(g);
    }
  }

  if (!failed_multi.empty() && round_.batch < vc.max_batches &&
      BudgetAllowsSalvage()) {
    // Salvage: split the failed groups and send fresh hashes.
    round_.pending_groups = SplitGroups(failed_multi);
    ++round_.batch;
    ++client_msgs_;
    BitWriter reply;
    WriteVerifyHashes(reply);
    return std::optional<Bytes>(reply.Finish());
  }

  if (round_.in_stage_a && EnterStageB()) {
    return ReadRoundAndReply(in);
  }
  FinishRound();
  // The round boundary is the checkpoint boundary: everything logged for
  // rounds < completed_rounds_ is now consistent and resumable.
  completed_rounds_ = ledger_->round();
  if (PrepareNextRound()) {
    return ReadRoundAndReply(in);
  }
  FSYNC_RETURN_IF_ERROR(ReadDelta(in));
  return std::optional<Bytes>();
}

Bytes SyncClientEndpoint::MakeRepairRequest() {
  ++client_msgs_;
  Bytes& cand = *repair_candidate_;
  const uint64_t region = RepairRegionSize(config_);
  const uint64_t count = RepairRegionCount(cand.size(), region);
  repair_region_count_ = static_cast<uint32_t>(count);
  BitWriter out;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t off = i * region;
    uint64_t len = std::min<uint64_t>(region, cand.size() - off);
    out.WriteBits(RegionHash(ByteSpan(cand.data() + off, len)), 64);
  }
  return out.Finish();
}

StatusOr<RepairOutcome> SyncClientEndpoint::OnRepairReply(ByteSpan msg) {
  BitReader in(msg);
  FSYNC_ASSIGN_OR_RETURN(bool use_full, in.ReadBit());
  if (use_full) {
    FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
    FSYNC_ASSIGN_OR_RETURN(Bytes comp, in.ReadBytes(len));
    FSYNC_ASSIGN_OR_RETURN(Bytes full, Decompress(comp));
    Fingerprint got = FileFingerprint(full);
    if (got != fp_new_) {
      return Status::DataLoss("session: repair full transfer mismatch");
    }
    result_ = std::move(full);
    repair_candidate_.reset();
    needs_fallback_ = false;
    done_ = true;
    return RepairOutcome::kFullTransfer;
  }
  Bytes& cand = *repair_candidate_;
  const uint64_t region = RepairRegionSize(config_);
  std::vector<uint64_t> bad;
  for (uint64_t i = 0; i < repair_region_count_; ++i) {
    FSYNC_ASSIGN_OR_RETURN(bool is_bad, in.ReadBit());
    if (is_bad) {
      bad.push_back(i);
    }
  }
  FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes comp, in.ReadBytes(len));
  FSYNC_ASSIGN_OR_RETURN(Bytes literals, Decompress(comp));
  size_t cursor = 0;
  for (uint64_t i : bad) {
    uint64_t off = i * region;
    uint64_t n = std::min<uint64_t>(region, cand.size() - off);
    if (cursor + n > literals.size()) {
      return Status::DataLoss("session: repair literals truncated");
    }
    std::copy(literals.begin() + cursor, literals.begin() + cursor + n,
              cand.begin() + off);
    cursor += n;
  }
  if (cursor != literals.size()) {
    return Status::DataLoss("session: trailing repair literals");
  }
  Fingerprint got = FileFingerprint(cand);
  if (got != fp_new_) {
    return RepairOutcome::kStillBroken;  // rung 3: full transfer
  }
  result_ = std::move(cand);
  repair_candidate_.reset();
  repaired_regions_ = static_cast<uint32_t>(bad.size());
  needs_fallback_ = false;
  done_ = true;
  return RepairOutcome::kRepaired;
}

Status SyncClientEndpoint::OnFallbackTransfer(ByteSpan msg) {
  FSYNC_ASSIGN_OR_RETURN(Bytes full, Decompress(msg));
  // The fallback crosses the same untrusted channel as the map rounds;
  // verify it against the fingerprint announced in round 1 so a corrupted
  // full transfer cannot be accepted silently.
  Fingerprint got = FileFingerprint(full);
  if (!std::equal(got.begin(), got.end(), fp_new_.begin())) {
    return Status::DataLoss("session: fallback transfer mismatch");
  }
  result_ = std::move(full);
  needs_fallback_ = false;
  done_ = true;
  return Status::Ok();
}

StatusOr<std::optional<Bytes>> SyncClientEndpoint::ReadRoundAndReply(
    BitReader& in) {
  FSYNC_RETURN_IF_ERROR(ReadHashesAndMatch(in));
  RecordTrace();

  round_.matched_ids.clear();
  round_.matched_is_cont.clear();
  BitWriter reply;
  for (size_t i = 0; i < round_.candidate_order.size(); ++i) {
    size_t id = round_.candidate_order[i];
    bool hit = ledger_->block(id).has_candidate;
    reply.WriteBit(hit);
    if (hit) {
      round_.matched_ids.push_back(id);
      round_.matched_is_cont.push_back(round_.candidate_is_cont[i]);
    }
  }
  const VerifyConfig vc = EffectiveVerify(config_, ledger_->round());
  round_.pending_groups =
      ledger_->BuildGroups(round_.matched_ids, round_.matched_is_cont, vc);
  round_.batch = 1;
  WriteVerifyHashes(reply);
  ++client_msgs_;
  return std::optional<Bytes>(reply.Finish());
}

void SyncClientEndpoint::WriteVerifyHashes(BitWriter& out) {
  const VerifyConfig vc = EffectiveVerify(config_, ledger_->round());
  std::vector<uint64_t> hashes;
  GroupVerifyHashes(
      f_old_, round_.pending_groups, *ledger_, /*client_side=*/true,
      vc.verify_bits,
      VerifySalt(ledger_->round(), round_.batch, round_.in_stage_a), hashes);
  for (uint64_t h : hashes) {
    out.WriteBits(h, vc.verify_bits);
  }
}

void SyncClientEndpoint::RecordTrace() {
  RoundTrace t;
  t.round = ledger_->round();
  t.stage_a = round_.in_stage_a;
  t.min_block = ~uint64_t{0};
  t.continuation_hashes =
      static_cast<uint32_t>(round_.plan.continuation.size());
  t.global_hashes = static_cast<uint32_t>(round_.plan.sent_global.size());
  t.derived_hashes = static_cast<uint32_t>(round_.plan.derived.size());
  t.skipped_blocks = static_cast<uint32_t>(round_.plan.skipped.size());
  for (size_t id : round_.candidate_order) {
    const Block& b = ledger_->block(id);
    t.min_block = std::min(t.min_block, b.size);
    t.max_block = std::max(t.max_block, b.size);
    t.candidates += b.has_candidate ? 1 : 0;
  }
  if (t.min_block == ~uint64_t{0}) {
    t.min_block = 0;
  }
  trace_.push_back(t);
  if (observer_ != nullptr) {
    // The span from the server message's arrival to here covers hash
    // decoding and the rolling-match pass — the client's per-round cost.
    auto elapsed = std::chrono::steady_clock::now() - msg_start_;
    observer_->RecordRound(
        static_cast<uint32_t>(trace_.size()),
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }
}

Status SyncClientEndpoint::ReadHashesAndMatch(BitReader& in) {
  const int cont_bits = EffectiveContinuationBits(config_, ledger_->round());
  // Continuation candidates: check the aligned extension positions.
  for (size_t id : round_.plan.continuation) {
    Block& b = ledger_->block(id);
    b.has_candidate = false;
    FSYNC_ASSIGN_OR_RETURN(uint64_t want, in.ReadBits(cont_bits));
    auto try_pos = [&](uint64_t pos) {
      if (b.has_candidate || pos + b.size > f_old_.size()) {
        return;
      }
      AdlerPair p = TabledAdler::Hash(f_old_.subspan(pos, b.size));
      if (TabledAdler::Truncate(p, cont_bits) == want) {
        b.has_candidate = true;
        b.match_pos = pos;
      }
    };
    if (auto left = ledger_->ConfirmedEndingAt(b.offset)) {
      uint64_t base = left->src + (left->end - left->begin);
      for (int64_t r = 0; r <= config_.local_radius && !b.has_candidate;
           ++r) {
        try_pos(base + static_cast<uint64_t>(r));
        if (r > 0 && base >= static_cast<uint64_t>(r)) {
          try_pos(base - static_cast<uint64_t>(r));
        }
      }
    }
    if (auto right = ledger_->ConfirmedStartingAt(b.offset + b.size)) {
      if (right->src >= b.size) {
        uint64_t base = right->src - b.size;
        for (int64_t r = 0; r <= config_.local_radius && !b.has_candidate;
             ++r) {
          try_pos(base + static_cast<uint64_t>(r));
          if (r > 0 && base >= static_cast<uint64_t>(r)) {
            try_pos(base - static_cast<uint64_t>(r));
          }
        }
      }
    }
  }

  // Global hashes: receive transmitted ones, derive suppressed ones.
  for (size_t id : round_.plan.sent_global) {
    Block& b = ledger_->block(id);
    b.has_candidate = false;
    FSYNC_ASSIGN_OR_RETURN(uint64_t value, in.ReadBits(hash_bits_));
    b.pair = UnpackPair(static_cast<uint32_t>(value), hash_bits_);
    b.pair_known = true;
    pair_log_.push_back(
        {ledger_->round(), static_cast<uint32_t>(id), b.pair});
  }
  for (size_t id : round_.plan.derived) {
    Block& b = ledger_->block(id);
    b.has_candidate = false;
    const Block& left = ledger_->block(id - 1);
    const Block& parent = ledger_->block(b.parent);
    b.pair = TabledAdler::SplitRight(parent.pair, left.pair, b.size);
    b.pair_known = true;
  }
  for (size_t id : round_.plan.skipped) {
    ledger_->block(id).has_candidate = false;
  }

  // One rolling pass over F_old per distinct block size, via the shared
  // matching core (weak-hash-only candidates; verification is a later
  // protocol phase). Sharded across config_.num_threads when > 1.
  scan_ids_.clear();
  scan_ids_.insert(scan_ids_.end(), round_.plan.sent_global.begin(),
                   round_.plan.sent_global.end());
  scan_ids_.insert(scan_ids_.end(), round_.plan.derived.begin(),
                   round_.plan.derived.end());
  ScanOptions scan_opts;
  scan_opts.num_threads = config_.num_threads;
  for (const auto& [size, idxs] : GroupBySize(scan_ids_.size(), [&](size_t k) {
         return ledger_->block(scan_ids_[k]).size;
       })) {
    scan_keys_.resize(idxs.size());
    for (size_t j = 0; j < idxs.size(); ++j) {
      scan_keys_[j] = TabledAdler::Truncate(
          ledger_->block(scan_ids_[idxs[j]]).pair, hash_bits_);
    }
    ScanForKeys(
        f_old_, size, hash_bits_, scan_keys_,
        [](size_t, uint64_t) { return true; }, scan_pos_, scan_opts,
        &scan_scratch_);
    for (size_t j = 0; j < idxs.size(); ++j) {
      if (scan_pos_[j] != kScanNoMatch) {
        Block& b = ledger_->block(scan_ids_[idxs[j]]);
        b.has_candidate = true;
        b.match_pos = scan_pos_[j];
      }
    }
  }
  return Status::Ok();
}

Status SyncClientEndpoint::ReadDelta(BitReader& in) {
  FSYNC_ASSIGN_OR_RETURN(uint64_t len, in.ReadVarint());
  FSYNC_ASSIGN_OR_RETURN(Bytes delta, in.ReadBytes(len));
  Bytes ref = BuildReference(f_old_, *ledger_, /*client_side=*/true);
  // A false verification (possible with very weak hash settings) makes
  // the client's reference diverge from the server's; the decode may
  // then fail or produce wrong bytes. Either way, fall back to a full
  // transfer rather than reporting an error.
  auto target_or = DeltaDecode(config_.delta_codec, ref, delta);
  if (target_or.ok()) {
    Fingerprint got = FileFingerprint(*target_or);
    if (std::equal(got.begin(), got.end(), fp_new_.begin())) {
      result_ = std::move(*target_or);
      done_ = true;
      return Status::Ok();
    }
    // Keep the mismatched reconstruction: most of it is usually correct,
    // and the degradation ladder (MakeRepairRequest) can patch just the
    // bad regions instead of re-fetching the whole file. Only one of the
    // announced length has the server's region layout; an honest
    // server's decode always has it (ZdDecode checks the length), and
    // any other goes to the full transfer, so the announced size never
    // sizes a buffer.
    if (config_.repair.enabled &&
        target_or->size() == ledger_->new_size()) {
      repair_candidate_ = std::move(*target_or);
    }
  }
  needs_fallback_ = true;
  return Status::Ok();
}

}  // namespace fsx
