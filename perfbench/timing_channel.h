// A SimulatedChannel that timestamps every Send and Receive, so a traced
// run can split one in-process sync into per-layer self times without
// touching the library. The client and server run in one thread and hand
// the channel back and forth, so every gap between two channel calls
// belongs to one side:
//
//   - a gap that ends at a Send is the sender's self time (typically it
//     started when that side received the previous message), charged to
//     the obs::Phase the attached SyncObserver declares for the send;
//   - a gap that ends at a Receive is the receiver's, under the phase
//     declared last;
//   - the tail from the last call to End() is the side that received
//     last (the client finishing its reconstruction).
//
// Time inside Send/Receive themselves is the channel's own. Together the
// charges cover Begin()..End() exactly once, so their sum can never
// exceed the sync's wall time. Wire bytes are the base class's: the
// subclass only reads the clock.
#ifndef PERFBENCH_TIMING_CHANNEL_H_
#define PERFBENCH_TIMING_CHANNEL_H_

#include <cstdint>
#include <map>
#include <string>

#include "fsync/net/channel.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/obs/trace.h"
#include "harness.h"

namespace perfbench {

enum class Side { kClient, kServer };

/// Self time per (side, phase), plus the channel's own time.
struct LayerTimes {
  uint64_t self_ns[2][fsx::obs::kNumPhases] = {};
  uint64_t channel_ns = 0;
  uint64_t messages = 0;

  uint64_t PhaseNs(Side side, fsx::obs::Phase p) const {
    return self_ns[static_cast<int>(side)][static_cast<int>(p)];
  }
  uint64_t PhaseNs(fsx::obs::Phase p) const {
    return PhaseNs(Side::kClient, p) + PhaseNs(Side::kServer, p);
  }
  /// Both sides' time in the per-file session phases (everything but
  /// manifest, literals and transport).
  uint64_t Core(Side side) const;
  uint64_t Total() const;
};

class TimingChannel : public fsx::SimulatedChannel {
 public:
  /// Starts the clock; call just before handing the channel to a sync.
  void Begin();
  /// Charges the tail; call as soon as the sync call returns.
  void End();

  void Send(Direction dir, fsx::ByteSpan payload) override;
  fsx::StatusOr<fsx::Bytes> Receive(Direction dir) override;

  const LayerTimes& times() const { return times_; }

 private:
  fsx::obs::Phase CurrentPhase() const;
  void Charge(Side side, fsx::obs::Phase phase, uint64_t now);

  LayerTimes times_;
  uint64_t last_ns_ = 0;
  Side last_receiver_ = Side::kClient;
};

/// The paper's slow link, as in bench/tree_sweep.cc: 64 KB/s down,
/// 16 KB/s up, 200 ms roundtrip.
fsx::LinkModel SlowLink();

/// Per-layer sums over the traced syncs of an in-process workload.
class TracedSums {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }

  /// Adds one traced sync: the channel's self times, the observer's
  /// phase bytes and degradation events, and the rounds and slow-link
  /// time of `stats` (the sync's TrafficStats). Checks invariant 6:
  /// the observer's phase sums equal `stats` in both directions.
  void AddSync(const TimingChannel& channel,
               const fsx::obs::SyncObserver& observer,
               const fsx::TrafficStats& stats, Result& result);

  /// Sets every summed metric in `result` to its mean over `syncs`.
  void SetMeans(Result& result, size_t syncs) const;

 private:
  std::map<std::string, double> sums_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_CHANNEL_H_
