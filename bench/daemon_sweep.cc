// Daemon fan-out sweep: N concurrent loopback clients against one real
// SyncDaemon (epoll event loop, the tree flow on the control stream,
// multiplexed per-file streams — the netd/ subsystem, not
// SimulatedChannel). Measures what the in-process
// fanout_sweep cannot: event-loop scheduling, socket I/O, backpressure,
// and the shared server cache under true concurrency.
//
// For each N in 1..128 the daemon is started fresh with its shared
// signature/delta cache enabled; the first clients warm it and the rest
// ride it, so server CPU per added client collapses toward the bytes it
// ships (docs/caching.md cost model). Reported per row: wall time for
// the whole herd, cumulative endpoint CPU, loop-thread CPU, and wire
// bytes — all from DaemonStats, with every replica verified
// bit-identical to the served tree before the row counts.
//
// `--json[=path]` additionally writes BENCH_daemon_sweep.json
// (fsx-bench-v1).
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/workload/tree.h"

namespace fsx {
namespace {

constexpr int kClientSweep[] = {1, 2, 4, 8, 16, 32, 64, 128};

struct SweepRow {
  uint64_t wall_ns = 0;
  netd::DaemonStats stats;
};

StatusOr<SweepRow> RunHerd(const Collection& server_tree,
                           const Collection& stale, int clients) {
  netd::DaemonOptions options;
  options.max_connections = 512;  // above the sweep ceiling
  netd::SyncDaemon daemon(server_tree, options);
  FSYNC_RETURN_IF_ERROR(daemon.Start());

  std::vector<Status> failures(clients, Status::Ok());
  bench::WallTimer timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        netd::ClientOptions opts;
        opts.port = daemon.port();
        auto r = netd::RunSyncClient(stale, opts);
        if (!r.ok()) {
          failures[i] = r.status();
        } else if (r->reconstructed != server_tree) {
          failures[i] = Status::Internal("replica mismatch");
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  SweepRow row;
  row.wall_ns = timer.Ns();
  daemon.Drain();
  daemon.Join();
  row.stats = daemon.stats();
  for (const Status& st : failures) {
    FSYNC_RETURN_IF_ERROR(st);
  }
  return row;
}

int Run(bench::JsonReport& report) {
  TreeChurnProfile profile = ReleaseTreeProfile(48);
  profile.seed = 0xDA3;
  TreePair pair = MakeTreeWorkload(profile);
  report.AddWorkload("daemon-release-tree", pair.new_tree.size(),
                     bench::CollectionBytes(pair.new_tree));

  std::printf("%zu files served, %zu in each stale replica\n\n",
              pair.new_tree.size(), pair.old_tree.size());
  uint64_t prev_cpu = 0;
  int prev_n = 0;
  for (int n : kClientSweep) {
    StatusOr<SweepRow> row = RunHerd(pair.new_tree, pair.old_tree, n);
    if (!row.ok()) {
      std::fprintf(stderr, "N=%d failed: %s\n", n,
                   row.status().message().c_str());
      return 1;
    }
    const netd::DaemonStats& s = row->stats;
    // Each row is an independent daemon, so the endpoint-CPU delta
    // between rows can go negative (cache warm-up noise); clamp at 0.
    const int64_t delta =
        static_cast<int64_t>(s.server_cpu_ns) - static_cast<int64_t>(prev_cpu);
    const uint64_t added_cpu =
        n > prev_n && delta > 0
            ? static_cast<uint64_t>(delta) / static_cast<uint64_t>(n - prev_n)
            : 0;
    std::printf(
        "  N=%3d  wall %8.2f ms  endpoint CPU %8.2f ms "
        "(%7.3f ms/added client)  loop CPU %8.2f ms  wire %9.1f KB\n",
        n, row->wall_ns / 1e6, s.server_cpu_ns / 1e6, added_cpu / 1e6,
        s.loop_thread_cpu_ns / 1e6, (s.bytes_in + s.bytes_out) / 1024.0);
    bench::BenchResult& out = report.Add("daemon/N=" + std::to_string(n));
    out.Config("clients", static_cast<uint64_t>(n))
        .Config("sessions_completed", s.sessions_completed)
        .Config("server_cpu_ns", s.server_cpu_ns)
        .Config("server_cpu_ns_per_added_client", added_cpu)
        .Config("loop_thread_cpu_ns", s.loop_thread_cpu_ns)
        .Config("backpressure_stalls", s.backpressure_stalls)
        .Rounds(static_cast<uint64_t>(n))
        .WallNs(row->wall_ns)
        .Total(s.bytes_in + s.bytes_out);
    prev_cpu = s.server_cpu_ns;
    prev_n = n;
  }
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "daemon_sweep",
      "real-socket daemon fan-out: wall time and server CPU vs N clients");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader(
      "Daemon sweep",
      "N loopback clients against one epoll sync daemon, shared cache");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
