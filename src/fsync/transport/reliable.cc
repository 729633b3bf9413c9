#include "fsync/transport/reliable.h"

#include <algorithm>

#include "fsync/transport/record.h"

namespace fsx::transport {

void ReliableChannel::Send(Direction dir, ByteSpan payload) {
  DirState& tx = dirs_[Index(dir)];
  const uint32_t seq = tx.next_seq++;
  tx.unacked.emplace_back(seq, Bytes(payload.begin(), payload.end()));
  ++counters_.records_sent;
  if (record_transcript_) {
    transcript_.push_back({dir, Bytes(payload.begin(), payload.end())});
  }
  SendRecord(dir, seq, payload, /*retransmit=*/false);
}

void ReliableChannel::SendRecord(Direction dir, uint32_t seq,
                                 ByteSpan payload, bool retransmit) {
  // Piggyback the cumulative ack for the reverse direction: everything
  // below next_expected has been delivered to the local protocol.
  const uint32_t ack = dirs_[Index(Opposite(dir))].next_expected;
  Bytes frame = EncodeRecord(kRecordTypeData, seq, ack, payload);
  inner_.Send(dir, frame);
  obs::SyncObserver* obs = inner_.observer();
  if (obs != nullptr) {
    const obs::Flow flow = dir == Direction::kClientToServer
                               ? obs::Flow::kUp
                               : obs::Flow::kDown;
    const uint64_t wire = MessageWireBytes(frame.size());
    // The inner Send just charged `wire` to the protocol's current phase.
    // Move the framing overhead — or, for a retransmission, the entire
    // record — to the transport phase, keeping per-phase sums equal to
    // TrafficStats (conformance invariant 6).
    const uint64_t overhead =
        retransmit ? wire : wire - MessageWireBytes(payload.size());
    obs->Reattribute(obs->phase(), obs::Phase::kTransport, flow, overhead);
    if (retransmit) {
      obs->AddEvent(obs::Event::kRetransmit);
    }
  }
}

void ReliableChannel::PruneAcked(Direction dir, uint32_t ack) {
  DirState& tx = dirs_[Index(dir)];
  while (!tx.unacked.empty() && tx.unacked.front().first < ack) {
    tx.unacked.pop_front();
  }
}

void ReliableChannel::Deliver(Direction dir, Bytes payload) {
  DirState& rx = dirs_[Index(dir)];
  if (record_transcript_) {
    delivered_.push_back({dir, payload});
  }
  rx.ready.push_back(std::move(payload));
  ++rx.next_expected;
  ++counters_.delivered;
  // Both endpoints live in this process, so a delivered record is by
  // definition acknowledged: prune it from the sender half immediately
  // rather than waiting for the ack to ride back on a reverse record.
  // (The wire ack field still flows and still prunes — see DrainRaw —
  // which is what a two-process deployment would rely on.)
  PruneAcked(dir, rx.next_expected);
  // Parked successors may now be in sequence.
  auto it = rx.reorder.find(rx.next_expected);
  while (it != rx.reorder.end()) {
    Bytes next = std::move(it->second);
    rx.reorder.erase(it);
    if (record_transcript_) {
      delivered_.push_back({dir, next});
    }
    rx.ready.push_back(std::move(next));
    ++rx.next_expected;
    ++counters_.delivered;
    PruneAcked(dir, rx.next_expected);
    it = rx.reorder.find(rx.next_expected);
  }
}

void ReliableChannel::DrainRaw(Direction dir) {
  DirState& rx = dirs_[Index(dir)];
  while (inner_.HasPending(dir)) {
    auto raw = inner_.Receive(dir);
    if (!raw.ok()) {
      return;  // unreachable given HasPending; be defensive anyway
    }
    auto rec = DecodeRecord(ByteSpan(raw->data(), raw->size()));
    if (!rec.ok() || rec->type != kRecordTypeData) {
      // Corruption is indistinguishable from loss: drop the record and
      // let the sender's timeout recover it. Valid records of a foreign
      // type (socket-channel or daemon frames, which share the record
      // format) have no business on a reliable stream and are dropped
      // the same way.
      ++counters_.corrupt_dropped;
      obs::AddEvent(inner_.observer(), obs::Event::kCorruptRecord);
      continue;
    }
    // The record's ack acknowledges traffic flowing the other way.
    PruneAcked(Opposite(dir), rec->ack);
    if (rec->seq < rx.next_expected) {
      ++counters_.duplicate_dropped;
      obs::AddEvent(inner_.observer(), obs::Event::kDuplicateRecord);
    } else if (rec->seq == rx.next_expected) {
      Deliver(dir, std::move(rec->payload));
    } else if (rec->seq - rx.next_expected <= kReorderWindow &&
               rx.reorder.size() < kReorderWindow) {
      if (rx.reorder.emplace(rec->seq, std::move(rec->payload)).second) {
        ++counters_.reorder_buffered;
        obs::AddEvent(inner_.observer(), obs::Event::kReorderBuffered);
      } else {
        ++counters_.duplicate_dropped;
        obs::AddEvent(inner_.observer(), obs::Event::kDuplicateRecord);
      }
    } else {
      ++counters_.window_dropped;
    }
  }
}

StatusOr<Bytes> ReliableChannel::Receive(Direction dir) {
  DirState& rx = dirs_[Index(dir)];
  DrainRaw(dir);
  int attempts = 0;
  uint64_t timeout_us = params_.initial_timeout_us;
  while (rx.ready.empty()) {
    DirState& tx = dirs_[Index(dir)];
    if (tx.unacked.empty()) {
      // Nothing was ever sent (and not yet delivered) in this direction:
      // the caller is ahead of the protocol, exactly as on the raw
      // channel. Keep the raw channel's error so existing protocol-shape
      // handling is unaffected.
      return Status::FailedPrecondition("channel: no pending message");
    }
    if (attempts >= params_.max_attempts) {
      return Status::Unavailable(
          "transport: peer unresponsive after " +
          std::to_string(params_.max_attempts) + " retransmit attempts");
    }
    ++attempts;
    ++counters_.timeouts;
    obs::AddEvent(inner_.observer(), obs::Event::kTimeout);
    // Virtual time: the clock advances instantly by the backoff.
    clock_->Advance(timeout_us);
    timeout_us = std::min(timeout_us * 2, params_.max_timeout_us);
    // Go-back-N recovery: re-send every unacknowledged record in order.
    // Retransmissions pass through the inner channel's fault hooks like
    // any send — a retransmit can itself be dropped or corrupted.
    for (size_t i = 0; i < tx.unacked.size(); ++i) {
      const auto& [seq, payload] = tx.unacked[i];
      ++counters_.retransmits;
      SendRecord(dir, seq, ByteSpan(payload.data(), payload.size()),
                 /*retransmit=*/true);
    }
    DrainRaw(dir);
  }
  Bytes msg = std::move(rx.ready.front());
  rx.ready.pop_front();
  return msg;
}

bool ReliableChannel::HasPending(Direction dir) const {
  // Conservative: raw records pending in the inner queue may turn out to
  // be stale duplicates. Use LogicalPending for an exact answer.
  const DirState& rx = dirs_[Index(dir)];
  return !rx.ready.empty() || !rx.reorder.empty() || inner_.HasPending(dir);
}

bool ReliableChannel::LogicalPending(Direction dir) {
  DrainRaw(dir);
  const DirState& rx = dirs_[Index(dir)];
  return !rx.ready.empty() || !rx.reorder.empty();
}

}  // namespace fsx::transport
