// daemon-mirror: one SyncDaemon serves the new version of the mirror
// tree on loopback TCP with its default shared cache; two client threads
// run RunSyncClient from the stale version in a closed loop. Traffic
// crosses loopback, not a real link. This is the path `fsxsync
// serve`/`connect` users run: event loop, framing/CRC, the full-manifest
// exchange and warm-cache replay.
#include <memory>
#include <thread>
#include <vector>

#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/workload/tree.h"
#include "harness.h"
#include "kernels.h"

namespace perfbench {
namespace {

// Two clients plus the loop thread leave one of four cores spare. With
// three, the machine runs near saturation and a shared host's steal time
// turns into queueing: p50 spread 0.62 against 0.34 with two, in runs
// alternated under the same contention.
constexpr int kClients = 2;

struct Served {
  fsx::TreePair pair;
  std::unique_ptr<fsx::netd::SyncDaemon> daemon;
};

// What one client thread saw during a herd.
struct Lane {
  std::vector<double> wall_ms;    // untraced syncs
  std::vector<double> traced_ms;  // traced syncs (traced runs only)
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t check_cpu_ns = 0;   // verifying replicas, not syncing
  uint64_t client_cpu_ns = 0;  // traced syncs: the thread's CPU inside
  uint64_t traced_wall_ns = 0; // RunSyncClient, and their wall time
  uint64_t files_sessioned = 0;
  uint64_t files_degraded = 0;
  bool cpu_within_wall = true;
};

// All clients' syncs over one measurement window.
struct Herd {
  std::vector<Lane> lanes;
  uint64_t window_ns = 0;
  uint64_t process_cpu_ns = 0;
  fsx::netd::DaemonStats before, after;

  // Every sync's wall time, and the process CPU minus replica checks.
  LoopStats Loop() const {
    LoopStats loop;
    uint64_t check_ns = 0;
    for (const Lane& lane : lanes) {
      loop.wall_ms.insert(loop.wall_ms.end(), lane.wall_ms.begin(),
                          lane.wall_ms.end());
      loop.wall_ms.insert(loop.wall_ms.end(), lane.traced_ms.begin(),
                          lane.traced_ms.end());
      check_ns += lane.check_cpu_ns;
    }
    loop.cpu_ns = process_cpu_ns > check_ns ? process_cpu_ns - check_ns : 0;
    return loop;
  }
};

}  // namespace

int RunDaemonMirror(const Args& args, Result& result) {
  double setup_s = 0;
  Served served = RepeatSetup(&setup_s, [&] {
    const fsx::TreePair pair = fsx::MakeTreeWorkload(MirrorTreeProfile());
    const SeedRelabel relabel(args.seed);
    Served s;
    s.pair.old_tree = relabel(pair.old_tree);
    s.pair.new_tree = relabel(pair.new_tree);
    s.daemon = std::make_unique<fsx::netd::SyncDaemon>(
        s.pair.new_tree, fsx::netd::DaemonOptions{});
    fsx::Status st = s.daemon->Start();
    result.Check(st.ok(), "daemon start: " + st.ToString());
    return s;
  });
  const fsx::Collection& stale = served.pair.old_tree;
  const fsx::Collection& fresh = served.pair.new_tree;
  const uint64_t server_bytes = CollectionBytes(fresh);
  fsx::netd::ClientOptions options;
  options.port = served.daemon->port();
  Log("daemon-mirror: %zu files served on 127.0.0.1:%u (loopback), "
      "%d clients from %zu stale files, set-up %.3f s (median of %d)",
      fresh.size(), options.port, kClients, stale.size(), setup_s,
      kSetupRepeats);

  // Warm-up: one sync fills the daemon's shared cache and fixes the
  // exact wire cost every later sync must repeat.
  uint64_t expected_wire = 0;
  {
    auto r = fsx::netd::RunSyncClient(stale, options);
    bool ok = r.ok() && r->reconstructed == fresh;
    result.Attempt(ok);
    if (!ok) {
      result.Check(false, "daemon warm-up sync failed");
      return 1;
    }
    expected_wire = r->physical_bytes_sent + r->physical_bytes_received;
  }

  // Runs the clients for `seconds`. With `trace`, each client times
  // every second sync from the inside too (its thread CPU).
  auto herd = [&](double seconds, bool trace) {
    Herd h;
    h.lanes.resize(kClients);
    h.before = served.daemon->stats();
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (Lane& lane : h.lanes) {
      threads.emplace_back([&, trace] {
        size_t i = 0;
        do {
          const bool traced = trace && i++ % 2 == 1;
          const uint64_t c0 = traced ? ThreadCpuNs() : 0;
          const uint64_t t0 = NowNs();
          auto r = fsx::netd::RunSyncClient(stale, options);
          const uint64_t wall = NowNs() - t0;
          if (traced) {
            const uint64_t cpu = ThreadCpuNs() - c0;
            lane.client_cpu_ns += cpu;
            lane.traced_wall_ns += wall;
            lane.cpu_within_wall = lane.cpu_within_wall && cpu <= wall;
          }
          (traced ? lane.traced_ms : lane.wall_ms).push_back(wall / 1e6);
          const uint64_t check0 = ThreadCpuNs();
          const bool ok =
              r.ok() && r->reconstructed == fresh &&
              r->physical_bytes_sent + r->physical_bytes_received ==
                  expected_wire;
          lane.check_cpu_ns += ThreadCpuNs() - check0;
          ++(ok ? lane.ok : lane.failed);
          if (r.ok()) {
            lane.files_sessioned += r->files_sessioned;
            lane.files_degraded += r->files_degraded;
          }
        } while (NowNs() < deadline);
      });
    }
    for (std::thread& t : threads) t.join();
    h.window_ns = NowNs() - start;
    h.process_cpu_ns = ProcessCpuNs() - cpu0;
    h.after = served.daemon->stats();
    for (const Lane& lane : h.lanes) {
      for (uint64_t i = 0; i < lane.ok; ++i) result.Attempt(true);
      for (uint64_t i = 0; i < lane.failed; ++i) result.Attempt(false);
    }
    return h;
  };

  const Herd h = herd(args.seconds, args.trace);
  const LoopStats loop = h.Loop();
  if (!args.trace) {
    SetEndToEnd(result, loop, kClients, server_bytes,
                static_cast<double>(expected_wire), setup_s);
  } else {
    std::vector<double> untraced_ms, traced_ms;
    uint64_t client_cpu = 0, traced_wall = 0, sessioned = 0, degraded = 0;
    for (const Lane& lane : h.lanes) {
      untraced_ms.insert(untraced_ms.end(), lane.wall_ms.begin(),
                         lane.wall_ms.end());
      traced_ms.insert(traced_ms.end(), lane.traced_ms.begin(),
                       lane.traced_ms.end());
      client_cpu += lane.client_cpu_ns;
      traced_wall += lane.traced_wall_ns;
      sessioned += lane.files_sessioned;
      degraded += lane.files_degraded;
      result.Check(lane.cpu_within_wall,
                   "client CPU exceeds the sync's wall time");
    }
    // Client-side figures are per traced sync; daemon-side ones are per
    // sync over the whole window (the daemon cannot tell them apart).
    const double traced_n = static_cast<double>(traced_ms.size());
    const double n = static_cast<double>(loop.wall_ms.size());
    const fsx::netd::DaemonStats& a = h.after;
    const fsx::netd::DaemonStats& b = h.before;
    const double server_cpu =
        static_cast<double>(a.server_cpu_ns - b.server_cpu_ns);
    const double loop_cpu =
        static_cast<double>(a.loop_thread_cpu_ns - b.loop_thread_cpu_ns);
    result.Set("netd.client_cpu_ms", client_cpu / traced_n / 1e6);
    result.Set("netd.client_wait_ms",
               static_cast<double>(traced_wall - client_cpu) / traced_n / 1e6);
    result.Set("netd.server_cpu_ms", server_cpu / n / 1e6);
    result.Set("netd.loop_cpu_ms", (loop_cpu - server_cpu) / n / 1e6);
    result.Set("netd.loop_busy_frac",
               loop_cpu / static_cast<double>(h.window_ns));
    result.Set("netd.files_sessioned", sessioned / n);
    result.Set("netd.files_degraded", degraded / n);
    result.Set("netd.backpressure_stalls",
               static_cast<double>(a.backpressure_stalls -
                                   b.backpressure_stalls) / n);
    result.Set("netd.connections_failed",
               static_cast<double>(a.connections_failed -
                                   b.connections_failed) / n);
    result.Set("trace.overhead_ms",
               Quantile(traced_ms, 0.5) - Quantile(untraced_ms, 0.5));
    ReplayKernels(stale, fresh, 0.25, result);
  }
  served.daemon->Drain();
  served.daemon->Join();
  return 0;
}

}  // namespace perfbench
