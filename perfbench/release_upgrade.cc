// release-upgrade: the paper's gcc-like release pair synced in memory by
// SyncCollectionBatched over a SimulatedChannel, with the configuration
// `fsxsync sync --method fsx` uses. One single-threaded closed-loop
// client. The per-file session engine (scan, MD5 verify, delta,
// compression) does nearly all the work.
#include <optional>

#include "fsync/core/adaptive.h"
#include "fsync/core/collection.h"
#include "fsync/workload/release.h"
#include "harness.h"
#include "kernels.h"
#include "timing_channel.h"

namespace perfbench {
namespace {

// bench/bench_util.h's BenchGccProfile: 150 base files of 4-192 KiB,
// 152 in the new release (~3.9 MB).
fsx::ReleaseProfile GccProfile() {
  fsx::ReleaseProfile p = fsx::GccLikeProfile();
  p.num_files = 150;
  p.min_file_bytes = 4 * 1024;
  p.max_file_bytes = 192 * 1024;
  return p;
}

bool SameTraffic(const fsx::TrafficStats& a, const fsx::TrafficStats& b) {
  return a.client_to_server_bytes == b.client_to_server_bytes &&
         a.server_to_client_bytes == b.server_to_client_bytes &&
         a.roundtrips == b.roundtrips;
}

}  // namespace

int RunReleaseUpgrade(const Args& args, Result& result) {
  double setup_s = 0;
  const fsx::ReleasePair pair = RepeatSetup(&setup_s, [&] {
    const fsx::ReleasePair made = fsx::MakeRelease(GccProfile());
    const SeedRelabel relabel(args.seed);
    return fsx::ReleasePair{relabel(made.old_release),
                            relabel(made.new_release)};
  });
  const fsx::SyncConfig config = fsx::ChooseConfig(32 * 1024, 32 * 1024);
  const uint64_t server_bytes = CollectionBytes(pair.new_release);
  Log("release-upgrade: %zu -> %zu files, %.2f MB served, set-up %.3f s "
      "(median of %d)",
      pair.old_release.size(), pair.new_release.size(), server_bytes / 1e6,
      setup_s, kSetupRepeats);

  std::optional<fsx::TrafficStats> expected;
  // One sync over `channel` (a TimingChannel when `traced`), checked
  // against the served release and the first sync's exact traffic.
  auto sync = [&](fsx::SimulatedChannel& channel, TimingChannel* traced,
                  fsx::obs::SyncObserver* obs,
                  fsx::CollectionSyncResult* out) {
    SyncSample s;
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    if (traced != nullptr) traced->Begin();
    auto r = fsx::SyncCollectionBatched(pair.old_release, pair.new_release,
                                        config, channel, obs);
    if (traced != nullptr) traced->End();
    s.wall_ns = NowNs() - t0;
    s.cpu_ns = ProcessCpuNs() - cpu0;
    if (!r.ok()) {
      result.Check(false, "release-upgrade sync: " + r.status().ToString());
      return s;
    }
    if (!expected.has_value()) expected = channel.stats();
    s.ok = r->reconstructed == pair.new_release &&
           SameTraffic(channel.stats(), *expected);
    if (out != nullptr) *out = std::move(*r);
    return s;
  };
  auto plain = [&] {
    fsx::SimulatedChannel channel;
    return sync(channel, nullptr, nullptr, nullptr);
  };

  result.Attempt(plain().ok);  // warm-up; fixes the expected traffic
  if (!expected.has_value()) return 1;

  if (!args.trace) {
    LoopStats loop = ClosedLoop(args.seconds, result, plain);
    SetEndToEnd(result, loop, 1, server_bytes,
                static_cast<double>(expected->total_bytes()), setup_s);
    return 0;
  }

  LoopStats untraced, traced;
  TracedSums sums;
  auto traced_sync = [&] {
    TimingChannel channel;
    fsx::obs::SyncObserver observer;
    fsx::CollectionSyncResult r;
    SyncSample s = sync(channel, &channel, &observer, &r);
    if (!s.ok) return s;
    sums.AddSync(channel, observer, channel.stats(), result);
    sums.Add("core.files_sessioned",
             static_cast<double>(r.files_total - r.files_unchanged -
                                 r.files_new));
    result.Check(channel.times().Total() <= s.wall_ns,
                 "layer self times exceed the sync's wall time");
    return s;
  };
  TracedLoop(args.seconds, result, plain, traced_sync, &untraced, &traced);
  sums.SetMeans(result, traced.wall_ms.size());
  result.Set("trace.overhead_ms", Quantile(traced.wall_ms, 0.5) -
                                      Quantile(untraced.wall_ms, 0.5));
  ReplayKernels(pair.old_release, pair.new_release, 0.25, result);
  return 0;
}

}  // namespace perfbench
