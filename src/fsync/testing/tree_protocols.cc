#include "fsync/testing/tree_protocols.h"

namespace fsx {

namespace {

// `small_file_threshold` 0 sends every stale file through a multiplexed
// session, so the sweeps cover the session batch on every file shape as
// well as the bundle.
TreeProtocolEntry TreeEntryFn(const char* name, int num_threads,
                              uint64_t small_file_threshold) {
  TreeSyncParams params;
  params.config.num_threads = num_threads;
  params.small_file_threshold = small_file_threshold;
  return {name,
          [params](const Collection& client, const Collection& server,
                   SimulatedChannel& channel, obs::SyncObserver* obs)
              -> StatusOr<TreeProtocolOutcome> {
            FSYNC_ASSIGN_OR_RETURN(
                TreeSyncResult r,
                SyncCollectionTree(client, server, params, channel, obs));
            TreeProtocolOutcome out;
            out.reconstructed = std::move(r.reconstructed);
            out.stats = r.stats;
            out.files_adopted = r.files_adopted;
            out.rounds = r.manifest_rounds;
            return out;
          }};
}

}  // namespace

const std::vector<TreeProtocolEntry>& TreeConformanceProtocols() {
  static const std::vector<TreeProtocolEntry> kProtocols =
      ThreadedTreeConformanceProtocols(1);
  return kProtocols;
}

std::vector<TreeProtocolEntry> ThreadedTreeConformanceProtocols(
    int num_threads) {
  return {TreeEntryFn("collection-tree", num_threads,
                      TreeSyncParams{}.small_file_threshold),
          TreeEntryFn("collection-tree-sessions", num_threads, 0)};
}

}  // namespace fsx
