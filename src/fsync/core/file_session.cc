#include "fsync/core/file_session.h"

namespace fsx {

namespace {

// The rung-3 ask carries no information; one byte keeps it a message.
Bytes FallbackAsk() { return Bytes{1}; }

}  // namespace

obs::Phase SessionMsgPhase(SessionMsg kind) {
  if (kind == SessionMsg::kRequest || kind == SessionMsg::kResumeRequest) {
    return obs::Phase::kHandshake;
  }
  return kind == SessionMsg::kFallbackRequest ? obs::Phase::kFallback
                                              : obs::Phase::kVerification;
}

obs::Phase SessionReplyPhase(SessionMsg kind) {
  if (kind == SessionMsg::kRepairRequest) {
    return obs::Phase::kLiterals;
  }
  return kind == SessionMsg::kFallbackRequest ? obs::Phase::kFallback
                                              : obs::Phase::kCandidates;
}

uint64_t ContinuationHashBits(const SyncConfig& config,
                              const std::vector<RoundTrace>& trace) {
  uint64_t bits = 0;
  for (const RoundTrace& t : trace) {
    bits += static_cast<uint64_t>(t.continuation_hashes) *
            EffectiveContinuationBits(config, t.round);
  }
  return bits;
}

void ReattributeRoundAnswers(obs::SyncObserver& obs, uint64_t delta_bytes,
                             uint64_t continuation_bits) {
  obs.Reattribute(obs::Phase::kCandidates, obs::Phase::kDelta,
                  obs::Flow::kDown, delta_bytes);
  obs.Reattribute(obs::Phase::kCandidates, obs::Phase::kContinuation,
                  obs::Flow::kDown, continuation_bits / 8);
}

SessionSend ClientFileSession::Start(const SessionCheckpoint* resume) {
  if (resume != nullptr && ep_.InstallCheckpoint(*resume).ok()) {
    return Send(SessionMsg::kResumeRequest, ep_.MakeResumeRequest());
  }
  return Send(SessionMsg::kRequest, ep_.MakeRequest());
}

StatusOr<std::optional<SessionSend>> ClientFileSession::OnServerMessage(
    ByteSpan msg) {
  switch (awaiting_) {
    case SessionMsg::kRequest:
    case SessionMsg::kResumeRequest:
    case SessionMsg::kRoundReply: {
      std::optional<Bytes> reply;
      if (awaiting_ == SessionMsg::kResumeRequest) {
        // An accepted resume continues mid-protocol; a rejected one
        // carries a fresh round-1 message the endpoint processes as is.
        FSYNC_ASSIGN_OR_RETURN(reply, ep_.OnResumeReply(msg));
        if (ep_.resumed()) {
          resumed_rounds_ = saved_rounds_ = ep_.completed_rounds();
          obs::AddEvent(obs_, obs::Event::kResume);
        }
      } else {
        FSYNC_ASSIGN_OR_RETURN(reply, ep_.OnServerMessage(msg));
      }
      if (checkpoint_fn_ && ep_.completed_rounds() > saved_rounds_) {
        saved_rounds_ = ep_.completed_rounds();
        checkpoint_fn_(ep_.MakeCheckpoint());
      }
      if (reply.has_value()) {
        return std::optional<SessionSend>(
            Send(SessionMsg::kRoundReply, std::move(*reply)));
      }
      return AfterMapPhase();
    }
    case SessionMsg::kRepairRequest: {
      FSYNC_ASSIGN_OR_RETURN(RepairOutcome outcome, ep_.OnRepairReply(msg));
      switch (outcome) {
        case RepairOutcome::kRepaired:
          obs::AddEvent(obs_, obs::Event::kRepairRegion,
                        ep_.repaired_regions());
          return Finish(1);
        case RepairOutcome::kFullTransfer:
          obs::AddEvent(obs_, obs::Event::kFullFallback);
          return Finish(2);
        case RepairOutcome::kStillBroken:
          break;
      }
      return std::optional<SessionSend>(
          Send(SessionMsg::kFallbackRequest, FallbackAsk()));
    }
    case SessionMsg::kFallbackRequest:
      FSYNC_RETURN_IF_ERROR(ep_.OnFallbackTransfer(msg));
      obs::AddEvent(obs_, obs::Event::kFullFallback);
      return Finish(2);
  }
  return Status::Internal("file session: unknown state");
}

std::optional<SessionSend> ClientFileSession::AfterMapPhase() {
  if (!ep_.needs_fallback()) {
    return Finish(0);
  }
  // The decoded reconstruction failed its fingerprint check. Rung 2
  // re-verifies it per region and fetches only the bad regions' literals;
  // rung 3 is the compressed full transfer.
  if (ep_.has_repair_candidate()) {
    return Send(SessionMsg::kRepairRequest, ep_.MakeRepairRequest());
  }
  return Send(SessionMsg::kFallbackRequest, FallbackAsk());
}

SessionSend ClientFileSession::Send(SessionMsg kind, Bytes bytes) {
  awaiting_ = kind;
  return SessionSend{kind, std::move(bytes)};
}

std::optional<SessionSend> ClientFileSession::Finish(int level) {
  degradation_level_ = level;
  return std::nullopt;
}

}  // namespace fsx
