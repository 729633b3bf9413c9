// Registry of whole-collection synchronization drivers adapted to one
// signature, mirroring protocols.h at the tree level: the differential
// runner and the fault injector drive every entry interchangeably.
#ifndef FSYNC_TESTING_TREE_PROTOCOLS_H_
#define FSYNC_TESTING_TREE_PROTOCOLS_H_

#include <functional>
#include <string>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/net/channel.h"
#include "fsync/util/status.h"

namespace fsx {

/// Protocol-independent view of one whole-tree synchronization run.
struct TreeProtocolOutcome {
  Collection reconstructed;
  TrafficStats stats;  // as reported by the protocol's own result
  uint64_t files_adopted = 0;  // rename/move ops satisfied locally
  int rounds = 0;  // protocol rounds when the protocol counts them
};

/// Runs one tree protocol end to end over `channel`. `obs` may be null;
/// when set, every wire message is attributed to a phase through it.
using TreeProtocolFn = std::function<StatusOr<TreeProtocolOutcome>(
    const Collection& client, const Collection& server,
    SimulatedChannel& channel, obs::SyncObserver* obs)>;

struct TreeProtocolEntry {
  std::string name;
  TreeProtocolFn run;
};

/// The tree conformance registry: the manifest-reconciled tree driver
/// with library-default parameters ("collection-tree") and with every
/// stale file in a per-file session ("collection-tree-sessions").
const std::vector<TreeProtocolEntry>& TreeConformanceProtocols();

/// The same registry with every protocol's `num_threads` execution knob
/// set. The determinism contract says any value must produce wire
/// traffic bit-identical to TreeConformanceProtocols().
std::vector<TreeProtocolEntry> ThreadedTreeConformanceProtocols(
    int num_threads);

}  // namespace fsx

#endif  // FSYNC_TESTING_TREE_PROTOCOLS_H_
