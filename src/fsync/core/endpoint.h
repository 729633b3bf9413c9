// Message-level protocol endpoints. These are the building blocks for
// running the synchronization protocol over a real transport: each side
// holds one endpoint, feeds it the peer's messages, and sends back the
// returned payloads. ClientFileSession (file_session.h) walks the client
// endpoint through a whole session and SyncServerEndpoint::Handle routes
// each client message; SynchronizeFile (session.h) moves them over the
// in-process SimulatedChannel, the daemon (netd/) over TCP.
//
// Wire protocol (all payloads bit-packed, see the design doc):
//   client -> server   request: old-file fingerprint + size
//   server -> client   round 1: unchanged flag | size+fingerprint+hashes
//   client -> server   candidate bitmap + verification hashes
//   server -> client   verification results [+ next hashes | delta]
//   ... (repeat; salvage batches and two-phase rounds insert extra
//        message pairs; both sides derive the schedule deterministically
//        from the shared configuration, so no message types are needed)
#ifndef FSYNC_CORE_ENDPOINT_H_
#define FSYNC_CORE_ENDPOINT_H_

#include <chrono>
#include <optional>
#include <vector>

#include "fsync/core/block_ledger.h"
#include "fsync/core/checkpoint.h"
#include "fsync/core/config.h"
#include "fsync/delta/delta.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/index/block_index.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/util/bit_io.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// What a client-to-server session message asks for. The byte values are
/// fixed: the server cache chains them into its transcript keys
/// (server_cache.h), and the daemon carries them in its kOpenFile and
/// kFileMsg bodies (netd/protocol.h).
enum class SessionMsg : uint8_t {
  kRequest = 0,          // first message of a fresh session
  kResumeRequest = 1,    // first message of a checkpoint resume
  kRoundReply = 2,       // candidate bitmap / verification hashes
  kRepairRequest = 3,    // rung 2: per-region hashes of a bad candidate
  kFallbackRequest = 4,  // rung 3: ask for the whole file
};

/// Result of the client's region-repair attempt (rung 2 of the
/// graceful-degradation ladder; see docs/PROTOCOL.md, "Degradation
/// ladder").
enum class RepairOutcome {
  kRepaired,      // region patching fixed the file; done
  kFullTransfer,  // server chose to send the whole file; done
  kStillBroken,   // patched file still mismatches -> full-transfer rung
};

/// Diagnostics for one protocol sub-round (stage A = continuation probes
/// of a two-phase round). "Harvest rate" (paper Section 6.2) is
/// confirmed / hashes_planned.
struct RoundTrace {
  int round = 0;            // ledger round index
  bool stage_a = false;     // continuation-first stage A
  uint64_t min_block = 0;   // smallest block hashed this sub-round
  uint64_t max_block = 0;
  uint32_t continuation_hashes = 0;
  uint32_t global_hashes = 0;   // transmitted
  uint32_t derived_hashes = 0;  // suppressed via decomposition
  uint32_t skipped_blocks = 0;
  uint32_t candidates = 0;  // hashes that found a match candidate
  uint32_t confirmed = 0;   // candidates surviving verification

  double HarvestRate() const {
    uint32_t planned = continuation_hashes + global_hashes + derived_hashes;
    return planned == 0 ? 0.0 : static_cast<double>(confirmed) / planned;
  }
};

namespace core_internal {

/// Shared per-round protocol progress; both endpoints advance one of
/// these with identical rules so the wire carries only hash payloads.
struct RoundState {
  RoundPlan plan;                           // the active sub-round's plan
  std::vector<size_t> candidate_order;      // wire order of candidates
  std::vector<bool> candidate_is_cont;      // aligned with candidate_order
  std::vector<size_t> matched_ids;          // candidates that found a match
  std::vector<bool> matched_is_cont;        // aligned with matched_ids
  std::vector<VerifyGroup> pending_groups;  // groups awaiting verification
  int batch = 0;
  // Two-phase (continuation-first) support: while stage A runs, the
  // round's global candidates wait here for stage B.
  bool in_stage_a = false;
  std::vector<size_t> stage_b_sent;
  std::vector<size_t> stage_b_derived;
};

/// Truncated-MD5 verification hash over the byte ranges of a group:
/// Md5::HashBits(concatenated member bytes, verify_bits, salt).
uint64_t GroupVerifyHash(ByteSpan file, const std::vector<size_t>& members,
                         const BlockLedger& ledger, bool client_side,
                         int verify_bits, uint64_t salt);

/// GroupVerifyHash of every group, out[i] for groups[i], computed by
/// Md5HashBitsBatch (four groups at a time, whatever their lengths).
/// A single-member group is hashed in place; multi-member groups are
/// gathered into a buffer of bounded size (groups are hashed in runs that
/// fit it), so memory does not grow with the file.
/// Bit-identical to the per-group hash because `salt` is nonzero
/// (VerifySalt never is).
void GroupVerifyHashes(ByteSpan file, const std::vector<VerifyGroup>& groups,
                       const BlockLedger& ledger, bool client_side,
                       int verify_bits, uint64_t salt,
                       std::vector<uint64_t>& out);

/// Builds the delta reference: the confirmed ranges' bytes in F_new order.
/// `client_side` selects client (read F_old at range.src) or server
/// (read F_new at range.begin) materialization. `runs`, when given,
/// receives where each range sits in F_new and in the reference, the
/// map that guides the server's encode; ranges that touch in F_new
/// form one run.
Bytes BuildReference(ByteSpan file, const BlockLedger& ledger,
                     bool client_side,
                     std::vector<KnownRun>* runs = nullptr);

/// Control skeleton both endpoints share: round scheduling, stage
/// transitions, and the roundtrip budget. The two sides must execute it
/// identically -- that is what keeps offsets and groupings off the wire.
class EndpointBase {
 protected:
  explicit EndpointBase(const SyncConfig& config) : config_(config) {}

  /// Advances past rounds with no candidates. Returns true if a round
  /// with candidates is ready (round_.plan filled), false when the map
  /// phase is over.
  bool PrepareNextRound();

  /// Rebuilds the wire-order candidate bookkeeping from round_.plan.
  void InstallCandidateOrder();

  /// After stage A's verification, installs stage B (the round's global
  /// hashes), dropping blocks whose sibling confirmed during stage A.
  bool EnterStageB();

  bool BudgetAllowsAnotherRound() const {
    return config_.max_roundtrips == 0 ||
           client_msgs_ + 1 < config_.max_roundtrips;
  }
  bool BudgetAllowsSalvage() const { return BudgetAllowsAnotherRound(); }

  /// After the final batch of a round: move to the next round.
  void FinishRound() { map_alive_ = ledger_->AdvanceRound(); }

  const SyncConfig config_;
  std::optional<BlockLedger> ledger_;
  RoundState round_;
  int hash_bits_ = 0;
  bool map_alive_ = false;
  int client_msgs_ = 0;  // client->server messages so far (both count)
  int rounds_executed_ = 0;
};

}  // namespace core_internal

/// Server side of one file synchronization: holds the *current* file.
class SyncServerEndpoint : private core_internal::EndpointBase {
 public:
  /// `f_new` must outlive the endpoint (not copied). `fp_new`, when the
  /// caller already knows FileFingerprint(f_new) (a manifest, a
  /// handshake), spares the endpoint hashing the file again; it must be
  /// that fingerprint, and it never changes a wire byte.
  SyncServerEndpoint(ByteSpan f_new, const SyncConfig& config,
                     const Fingerprint* fp_new = nullptr);

  /// Handles the client's initial request; returns the first server
  /// message.
  StatusOr<Bytes> OnRequest(ByteSpan msg);

  /// Handles a resume request: validates the client's checkpoint claim,
  /// replays the logged rounds onto a fresh ledger, and answers with
  /// either "accepted" + the next round's hashes, or "rejected" + a full
  /// fresh round-1 message (the client falls back transparently).
  StatusOr<Bytes> OnResumeRequest(ByteSpan msg);

  /// Handles a round reply or a salvage batch; returns the response
  /// (which may carry the next round's hashes or the final delta).
  StatusOr<Bytes> OnClientMessage(ByteSpan msg);

  /// Handles a region-repair request (rung 2 of the degradation ladder):
  /// compares the client's per-region hashes of its broken candidate with
  /// the real file and replies with the bad regions' literal bytes, or
  /// with a full compressed transfer when too much is broken.
  StatusOr<Bytes> OnRepairRequest(ByteSpan msg);

  /// Full-transfer payload after the client reports a reconstruction
  /// failure (compressed current file; the ladder's last rung).
  Bytes OnFallbackRequest() const;

  /// Routes one client message to the handler its kind names. Every
  /// driver (in-process, multiplexed, daemon, cache replay) dispatches
  /// through here.
  StatusOr<Bytes> Handle(SessionMsg kind, ByteSpan msg);

  /// The reference the delta is encoded against and, in `runs`, the
  /// known runs that guide the encode (both empty before a map exists).
  Bytes DeltaReference(std::vector<KnownRun>* runs) const;

  /// True once the unchanged short-circuit or the delta has been sent.
  bool done() const { return done_; }
  int rounds_executed() const { return rounds_executed_; }
  uint64_t delta_payload_bytes() const { return delta_payload_bytes_; }
  bool resumed() const { return resumed_; }
  bool repair_used_full() const { return repair_used_full_; }
  uint32_t repair_bad_regions() const { return repair_bad_regions_; }

 private:
  StatusOr<Bytes> ProcessBatch(BitReader& in);
  void StartFresh(ByteSpan fp_old, uint64_t n_old, BitWriter& out);
  void AppendRoundHashes(BitWriter& out);
  void AppendDelta(BitWriter& out);

  ByteSpan f_new_;
  const Fingerprint fp_new_;
  uint64_t old_size_ = 0;
  uint64_t delta_payload_bytes_ = 0;
  bool done_ = false;
  bool resumed_ = false;
  bool repair_used_full_ = false;
  uint32_t repair_bad_regions_ = 0;
};

/// Client side of one file synchronization: holds the *outdated* file.
class SyncClientEndpoint : private core_internal::EndpointBase {
 public:
  /// `f_old` must outlive the endpoint (not copied). `fp_old`, when the
  /// caller already knows FileFingerprint(f_old), spares the endpoint
  /// hashing the file again; it must be that fingerprint, and it never
  /// changes a wire byte. Reconstructions are still checked against the
  /// server's announced fingerprint of F_new.
  SyncClientEndpoint(ByteSpan f_old, const SyncConfig& config,
                     const Fingerprint* fp_old = nullptr);

  /// Builds the initial request message.
  Bytes MakeRequest();

  /// Validates a persisted checkpoint against the local file and config.
  /// On success the next message must be built with MakeResumeRequest()
  /// and its reply fed to OnResumeReply(). Failure (stale fp_old, config
  /// drift, unsupported continuation_first) means "start fresh with
  /// MakeRequest()" — never an error the caller must handle.
  Status InstallCheckpoint(const SessionCheckpoint& cp);

  /// Builds the resume request (requires a successful InstallCheckpoint).
  Bytes MakeResumeRequest();

  /// Processes the server's answer to a resume request. Accepted resumes
  /// replay the checkpoint locally and continue mid-protocol; rejected
  /// ones transparently process the embedded fresh round-1 message.
  StatusOr<std::optional<Bytes>> OnResumeReply(ByteSpan msg);

  /// Processes a server message. Returns a reply to send, or nullopt when
  /// the session is finished (check done() / needs_fallback()).
  StatusOr<std::optional<Bytes>> OnServerMessage(ByteSpan msg);

  /// Snapshot of the progress through the last completed round, for
  /// persisting via fsstore. Meaningful once the map phase has started.
  SessionCheckpoint MakeCheckpoint() const;

  /// Rung-2 repair exchange: hashes the broken reconstruction candidate
  /// per region (requires has_repair_candidate()).
  Bytes MakeRepairRequest();
  /// Applies the server's repair reply (region literals or full file).
  StatusOr<RepairOutcome> OnRepairReply(ByteSpan msg);

  /// After a fingerprint mismatch, applies the server's full transfer.
  Status OnFallbackTransfer(ByteSpan msg);

  bool done() const { return done_; }
  bool unchanged() const { return unchanged_; }
  bool needs_fallback() const { return needs_fallback_; }
  /// ReadDelta decoded a full-length candidate that failed the
  /// fingerprint check; region repair can likely fix it in place.
  bool has_repair_candidate() const { return repair_candidate_.has_value(); }
  const Bytes& result() const { return result_; }
  const std::vector<RoundTrace>& trace() const { return trace_; }
  int rounds_executed() const { return rounds_executed_; }
  int completed_rounds() const { return completed_rounds_; }
  bool resumed() const { return resumed_; }
  uint32_t repaired_regions() const { return repaired_regions_; }

  /// Optional observability hook: when set, every protocol sub-round
  /// emits a kRound trace event whose wall-clock span covers the server
  /// message's processing up to and including candidate matching (the
  /// endpoint's dominant cost). Host-side only; never affects the wire.
  void set_observer(obs::SyncObserver* obs) { observer_ = obs; }
  double confirmed_fraction() const {
    return ledger_.has_value() ? ledger_->ConfirmedFraction() : 1.0;
  }

 private:
  StatusOr<std::optional<Bytes>> StartFromHeader(BitReader& in);
  // Appends the verification hash of every pending group (this batch).
  void WriteVerifyHashes(BitWriter& out);
  StatusOr<std::optional<Bytes>> ReadRoundAndReply(BitReader& in);
  void RecordTrace();
  Status ReadHashesAndMatch(BitReader& in);
  Status ReadDelta(BitReader& in);

  ByteSpan f_old_;
  const Fingerprint fp_old_;
  Fingerprint fp_new_{};
  // Resume machinery: the validated checkpoint awaiting the server's
  // verdict, and the logs feeding the next MakeCheckpoint().
  std::optional<SessionCheckpoint> pending_resume_;
  std::vector<SessionCheckpoint::ConfirmEntry> confirm_log_;
  std::vector<SessionCheckpoint::PairEntry> pair_log_;
  int completed_rounds_ = 0;
  bool resumed_ = false;
  // Degradation-ladder state: the decoded-but-mismatched reconstruction.
  std::optional<Bytes> repair_candidate_;
  uint32_t repaired_regions_ = 0;
  uint32_t repair_region_count_ = 0;
  // Candidate-scan scratch, reused across rounds (allocations and the
  // flat index's capacity survive between ReadHashesAndMatch calls).
  BlockIndex scan_scratch_;
  std::vector<size_t> scan_ids_;
  std::vector<uint32_t> scan_keys_;
  std::vector<uint64_t> scan_pos_;
  obs::SyncObserver* observer_ = nullptr;
  std::chrono::steady_clock::time_point msg_start_;
  bool started_ = false;
  bool done_ = false;
  bool unchanged_ = false;
  bool needs_fallback_ = false;
  Bytes result_;
  std::vector<RoundTrace> trace_;
};

}  // namespace fsx

#endif  // FSYNC_CORE_ENDPOINT_H_
