#include "timing_channel.h"

#include "harness.h"

namespace perfbench {

using fsx::obs::Phase;

namespace {

Side Sender(fsx::SimulatedChannel::Direction dir) {
  return dir == fsx::SimulatedChannel::Direction::kClientToServer
             ? Side::kClient
             : Side::kServer;
}

Side Receiver(fsx::SimulatedChannel::Direction dir) {
  return Sender(dir) == Side::kClient ? Side::kServer : Side::kClient;
}

bool IsCorePhase(Phase p) {
  return p != Phase::kManifest && p != Phase::kLiterals &&
         p != Phase::kTransport;
}

}  // namespace

uint64_t LayerTimes::Core(Side side) const {
  uint64_t sum = 0;
  for (int p = 0; p < fsx::obs::kNumPhases; ++p) {
    if (IsCorePhase(static_cast<Phase>(p))) {
      sum += self_ns[static_cast<int>(side)][p];
    }
  }
  return sum;
}

uint64_t LayerTimes::Total() const {
  uint64_t sum = channel_ns;
  for (const auto& side : self_ns) {
    for (uint64_t ns : side) sum += ns;
  }
  return sum;
}

void TimingChannel::Begin() {
  times_ = LayerTimes{};
  last_receiver_ = Side::kClient;
  last_ns_ = NowNs();
}

void TimingChannel::End() {
  Charge(last_receiver_, CurrentPhase(), NowNs());
}

Phase TimingChannel::CurrentPhase() const {
  return observer() != nullptr ? observer()->phase() : Phase::kHandshake;
}

void TimingChannel::Charge(Side side, Phase phase, uint64_t now) {
  times_.self_ns[static_cast<int>(side)][static_cast<int>(phase)] +=
      now - last_ns_;
  last_ns_ = now;
}

void TimingChannel::Send(Direction dir, fsx::ByteSpan payload) {
  Charge(Sender(dir), CurrentPhase(), NowNs());
  SimulatedChannel::Send(dir, payload);
  uint64_t now = NowNs();
  times_.channel_ns += now - last_ns_;
  last_ns_ = now;
  ++times_.messages;
}

fsx::StatusOr<fsx::Bytes> TimingChannel::Receive(Direction dir) {
  Charge(Receiver(dir), CurrentPhase(), NowNs());
  fsx::StatusOr<fsx::Bytes> message = SimulatedChannel::Receive(dir);
  uint64_t now = NowNs();
  times_.channel_ns += now - last_ns_;
  last_ns_ = now;
  last_receiver_ = Receiver(dir);
  return message;
}

fsx::LinkModel SlowLink() {
  fsx::LinkModel link;
  link.downstream_bytes_per_sec = 64 * 1024;
  link.upstream_bytes_per_sec = 16 * 1024;
  link.roundtrip_latency_sec = 0.2;
  return link;
}

void TracedSums::AddSync(const TimingChannel& channel,
                         const fsx::obs::SyncObserver& observer,
                         const fsx::TrafficStats& stats, Result& result) {
  using fsx::obs::Event;
  using fsx::obs::Flow;
  const LayerTimes& t = channel.times();
  Add("core.client_ms", t.Core(Side::kClient) / 1e6);
  Add("core.server_ms", t.Core(Side::kServer) / 1e6);
  Add("reconcile.ms", t.PhaseNs(Phase::kManifest) / 1e6);
  Add("compress.ms", t.PhaseNs(Phase::kLiterals) / 1e6);
  Add("net.channel_ms", t.channel_ns / 1e6);
  Add("net.messages", static_cast<double>(t.messages));
  Add("net.rounds", static_cast<double>(stats.roundtrips));
  Add("net.link_s", SlowLink().TransferSeconds(stats));
  Add("core.candidates_bytes", observer.phase_bytes(Phase::kCandidates));
  Add("core.verification_bytes", observer.phase_bytes(Phase::kVerification));
  Add("core.continuation_bytes", observer.phase_bytes(Phase::kContinuation));
  Add("core.delta_bytes", observer.phase_bytes(Phase::kDelta));
  Add("core.fallbacks",
      static_cast<double>(observer.event_count(Event::kFullFallback) +
                          observer.event_count(Event::kRepairRegion)));
  Add("reconcile.manifest_bytes", observer.phase_bytes(Phase::kManifest));
  Add("compress.literals_bytes", observer.phase_bytes(Phase::kLiterals));
  result.Check(observer.dir_bytes(Flow::kUp) == stats.client_to_server_bytes &&
                   observer.dir_bytes(Flow::kDown) ==
                       stats.server_to_client_bytes,
               "invariant 6: observer phase sums differ from TrafficStats");
}

void TracedSums::SetMeans(Result& result, size_t syncs) const {
  for (const auto& [name, sum] : sums_) {
    result.Set(name, syncs == 0 ? 0.0 : sum / static_cast<double>(syncs));
  }
}

}  // namespace perfbench
