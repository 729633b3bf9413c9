// Deterministic virtual clock for the reliable transport. Retransmission
// timeouts and exponential backoff are expressed against it, never
// against wall time, so every transport test (including the chaos suite)
// is exactly replayable: a given seed produces the same timeout sequence
// on every platform and under every sanitizer. The daemon keeps its
// deadlines on CLOCK_MONOTONIC itself (SyncDaemon::NowUs).
#ifndef FSYNC_TRANSPORT_SIM_CLOCK_H_
#define FSYNC_TRANSPORT_SIM_CLOCK_H_

#include <cstdint>

namespace fsx::transport {

/// Monotonic virtual clock in microseconds. Time passes only when a
/// component explicitly advances it (the reliable channel does so once
/// per expired receive deadline): waiting is instantaneous, the deadline
/// simply arrives.
class SimClock {
 public:
  uint64_t now_us() const { return now_us_; }
  void Advance(uint64_t delta_us) { now_us_ += delta_us; }

 private:
  uint64_t now_us_ = 0;
};

}  // namespace fsx::transport

#endif  // FSYNC_TRANSPORT_SIM_CLOCK_H_
