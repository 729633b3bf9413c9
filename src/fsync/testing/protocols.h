// Uniform registry of every synchronization protocol in the library,
// adapted to one signature so the differential runner and the fault
// injector can drive them interchangeably. Adding a protocol here is the
// single step that enrolls it in the conformance suite.
#ifndef FSYNC_TESTING_PROTOCOLS_H_
#define FSYNC_TESTING_PROTOCOLS_H_

#include <functional>
#include <string>
#include <vector>

#include "fsync/net/channel.h"
#include "fsync/util/bytes.h"
#include "fsync/util/status.h"

namespace fsx {

/// Protocol-independent view of one synchronization run.
struct ProtocolOutcome {
  Bytes reconstructed;
  TrafficStats stats;  // as reported by the protocol's own result
  bool fell_back = false;
  int rounds = 0;  // protocol rounds when the protocol counts them
};

/// Runs one protocol end to end over `channel`. `obs` may be null; when
/// set, the protocol attributes every wire message to a phase through it
/// (the conformance suite cross-checks those sums against the channel's
/// TrafficStats).
using ProtocolFn = std::function<StatusOr<ProtocolOutcome>(
    ByteSpan f_old, ByteSpan f_new, SimulatedChannel& channel,
    obs::SyncObserver* obs)>;

struct ProtocolEntry {
  std::string name;
  ProtocolFn run;
};

/// The conformance registry: rsync, zsync, CDC, multiround, and the
/// paper's full session protocol, each with its library-default
/// parameters.
const std::vector<ProtocolEntry>& ConformanceProtocols();

/// The same registry with every protocol's `num_threads` execution knob
/// set. The determinism contract says any value must produce wire traffic
/// and results bit-identical to ConformanceProtocols(); the threaded
/// conformance suite runs both and compares channel transcripts.
std::vector<ProtocolEntry> ThreadedConformanceProtocols(int num_threads);

}  // namespace fsx

#endif  // FSYNC_TESTING_PROTOCOLS_H_
