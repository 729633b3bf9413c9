// Maintaining a replicated web-page collection (the paper's motivating
// application): a client keeps a mirror of a crawled page set fresh by
// synchronizing every N days, using the adaptive configuration chooser.
#include <cstdio>

#include "fsync/core/adaptive.h"
#include "fsync/core/collection.h"
#include "fsync/workload/web.h"

int main() {
  using namespace fsx;

  WebProfile profile;
  profile.num_pages = 150;  // scaled-down demo of the paper's 10,000
  WebCollectionModel model(profile);

  uint64_t collection_bytes = 0;
  for (const auto& [name, page] : model.Snapshot(0)) {
    collection_bytes += page.size();
  }
  std::printf("collection: %d pages, %.1f MiB\n\n", profile.num_pages,
              collection_bytes / 1048576.0);

  // A home-DSL-class link: fast down, slow up, noticeable latency.
  LinkModel link;
  link.downstream_bytes_per_sec = 256 * 1024;
  link.upstream_bytes_per_sec = 64 * 1024;
  link.roundtrip_latency_sec = 0.08;
  AdaptiveHints hints;
  hints.roundtrip_latency_sec = link.roundtrip_latency_sec;
  hints.bandwidth_bytes_per_sec = link.downstream_bytes_per_sec;

  std::printf("%-10s %14s %14s %12s %10s\n", "interval", "traffic (KiB)",
              "unchanged", "roundtrips", "time (s)");
  for (int gap : {1, 2, 7}) {
    const Collection& old_snap = model.Snapshot(0);
    const Collection& new_snap = model.Snapshot(gap);

    TreeSyncParams params;
    params.config = ChooseConfig(32 * 1024, 32 * 1024, hints);
    // The tree driver: a manifest walk finds the changed pages, and all
    // their protocol rounds share roundtrips, so the reported latency is
    // what a real deployment would see.
    SimulatedChannel channel;
    auto r = SyncCollectionTree(old_snap, new_snap, params, channel);
    if (!r.ok()) {
      std::fprintf(stderr, "sync failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (r->reconstructed != new_snap) {
      std::fprintf(stderr, "MISMATCH after %d-day sync\n", gap);
      return 1;
    }
    std::printf("%6d day %14.1f %11llu/%llu %12llu %10.1f\n", gap,
                r->stats.total_bytes() / 1024.0,
                static_cast<unsigned long long>(r->files_unchanged),
                static_cast<unsigned long long>(r->files_total),
                static_cast<unsigned long long>(r->stats.roundtrips),
                link.TransferSeconds(r->stats));
  }
  std::printf("\nall snapshots verified byte-identical after sync\n");
  return 0;
}
