// Whole-tree sync at scale: manifest reconciliation + rename adoption +
// small-file batching (SyncCollectionTree) on large trees with ~1%
// churn. The manifest walk costs O(set difference) instead of an O(n)
// per-file fingerprint announce, which dominates when almost nothing
// changed; the high-latency link model converts rounds and bytes into
// wall-clock over a slow link. The `daemon` row runs the same tree flow
// over a loopback SyncDaemon and RunSyncClient: its bytes are the
// physical ones (framing and handshake included), and it has no
// simulated rounds or link time. --files=N rescales every workload
// (default 20000; the headline run uses --files=100000).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/workload/tree.h"

namespace fsx {
namespace {

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds);
  return buf;
}

struct Row {
  const char* protocol;
  TrafficStats stats;
  uint64_t rounds = 0;
  uint64_t adopted = 0;
  uint64_t small = 0;
  uint64_t sessioned = 0;
};

int RunWorkload(bench::JsonReport& report, const char* dataset,
                const TreeChurnProfile& profile, const LinkModel& link) {
  TreePair pair = MakeTreeWorkload(profile);
  uint64_t diff_files = 0;
  for (const auto& [name, data] : pair.new_tree) {
    auto it = pair.old_tree.find(name);
    if (it == pair.old_tree.end() || it->second != data) {
      ++diff_files;
    }
  }
  report.AddWorkload(dataset, pair.new_tree.size(),
                     bench::CollectionBytes(pair.new_tree));
  std::printf("\n%s: %zu -> %zu files, %.1f MB, %llu differing\n", dataset,
              pair.old_tree.size(), pair.new_tree.size(),
              bench::CollectionBytes(pair.new_tree) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(diff_files));
  std::printf("%-10s %12s %8s %10s %9s %8s %10s %10s\n", "protocol",
              "total KB", "rounds", "link sec", "adopted", "small",
              "sessioned", "wall ms");

  for (const bool simulated : {true, false}) {
    SimulatedChannel channel;
    obs::SyncObserver observer;
    bench::WallTimer timer;
    Row row;
    if (simulated) {
      row.protocol = "tree";
      auto r = SyncCollectionTree(pair.old_tree, pair.new_tree, {}, channel,
                                  &observer);
      if (!r.ok()) {
        std::fprintf(stderr, "tree sync failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (r->reconstructed != pair.new_tree) {
        std::fprintf(stderr, "tree sync produced a wrong tree\n");
        return 1;
      }
      row.stats = r->stats;
      row.rounds = static_cast<uint64_t>(r->stats.roundtrips);
      row.adopted = r->files_adopted;
      row.small = r->files_small;
      row.sessioned = r->files_sessioned;
    } else {
      row.protocol = "daemon";
      netd::SyncDaemon daemon(pair.new_tree, netd::DaemonOptions{});
      Status started = daemon.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "daemon start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      netd::ClientOptions options;
      options.port = daemon.port();
      auto r = netd::RunSyncClient(pair.old_tree, options);
      daemon.Drain();
      daemon.Join();
      if (!r.ok()) {
        std::fprintf(stderr, "daemon sync failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (r->reconstructed != pair.new_tree) {
        std::fprintf(stderr, "daemon sync produced a wrong tree\n");
        return 1;
      }
      row.stats.client_to_server_bytes = r->physical_bytes_sent;
      row.stats.server_to_client_bytes = r->physical_bytes_received;
      row.adopted = r->files_adopted;
      row.small = r->files_small;
      row.sessioned = r->files_sessioned;
    }
    uint64_t wall = timer.Ns();
    std::printf("%-10s %12.1f %8s %10s %9llu %8llu %10llu %10.1f\n",
                row.protocol, row.stats.total_bytes() / 1024.0,
                simulated ? std::to_string(row.rounds).c_str() : "-",
                simulated ? FormatSeconds(link.TransferSeconds(row.stats))
                                .c_str()
                          : "-",
                static_cast<unsigned long long>(row.adopted),
                static_cast<unsigned long long>(row.small),
                static_cast<unsigned long long>(row.sessioned),
                wall / 1e6);
    std::string name = std::string(dataset) + ", " + row.protocol;
    bench::BenchResult& result = report.Add(name)
                                     .Config("protocol", row.protocol)
                                     .Config("dataset", dataset);
    if (simulated) {
      result.Observed(observer).Rounds(row.rounds);
    } else {
      result.Traffic(row.stats);
    }
    result.WallNs(wall);
  }
  return 0;
}

int Run(bench::JsonReport& report, int num_files) {
  // The paper's slow-link setting: modem-class bandwidth, 200 ms RTT.
  LinkModel link;
  link.downstream_bytes_per_sec = 64 * 1024;
  link.upstream_bytes_per_sec = 16 * 1024;
  link.roundtrip_latency_sec = 0.2;

  if (RunWorkload(report, "release-tree", ReleaseTreeProfile(num_files),
                  link) != 0) {
    return 1;
  }
  if (RunWorkload(report, "web-tree", WebTreeProfile(num_files), link) !=
      0) {
    return 1;
  }

  // Pure path churn: every byte already present locally under another
  // name. The tree protocol should close this with the manifest walk
  // alone — no literal data at all.
  TreeChurnProfile rename_only = ReleaseTreeProfile(num_files / 10);
  rename_only.seed = 0x4E4A;
  rename_only.frac_unchanged = 0.9;
  rename_only.frac_renamed = 0.1;
  rename_only.frac_edited = 0;
  rename_only.frac_deleted = 0;
  rename_only.files_added = 0;
  rename_only.dir_renames = 2;
  if (RunWorkload(report, "pure-rename", rename_only, link) != 0) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  int num_files = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--files=", 8) == 0) {
      num_files = std::atoi(argv[i] + 8);
      if (num_files < 100) {
        std::fprintf(stderr, "--files must be >= 100\n");
        return 2;
      }
    }
  }
  fsx::bench::JsonReport report(
      "tree_sweep",
      "whole-tree sync at scale: manifest walk + adoption, simulated and "
      "over the daemon");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader(
      "Tree sweep",
      "manifest reconciliation + rename adoption, simulated and daemon");
  int rc = fsx::Run(report, num_files);
  return rc != 0 ? rc : report.Write();
}
