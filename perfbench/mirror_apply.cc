// mirror-apply: a 20k-file release-texture tree at ~1% churn. Each
// iteration syncs with SyncCollectionTree and commits the result into an
// on-disk replica with the journaled store::ApplyTree. Iterations
// ping-pong old -> new -> old, so the replica never needs reseeding; the
// two directions have their own (exactly repeating) wire costs, and
// wire_bytes is their mean. Reconcile (manifest walk, adoption), the
// small-file bundle and the store do the work; per-file sessions do none.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "fsync/core/collection.h"
#include "fsync/store/apply.h"
#include "fsync/store/fsstore.h"
#include "fsync/workload/tree.h"
#include "harness.h"
#include "kernels.h"
#include "timing_channel.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Mirror {
  fsx::Collection version[2];  // [0] = old, [1] = new
  fsx::Manifest manifest[2];
};

// The replica's manifest as its last commit wrote it.
std::optional<fsx::Manifest> DiskManifest(const fs::path& root) {
  std::ifstream in(root / ".fsx-manifest", std::ios::binary);
  if (!in) return std::nullopt;
  fsx::Bytes data{std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>()};
  auto parsed = fsx::ParseManifest(data);
  if (!parsed.ok()) return std::nullopt;
  return std::move(*parsed);
}

// Writes `files` and their manifest under `root`: the replica a previous
// sync left behind. Plain writes rather than the program's StoreTree, so
// a change to the store layer never changes the scaffolding.
bool SeedReplica(const fs::path& root, const fsx::Collection& files,
                 const fsx::Manifest& manifest) {
  std::error_code ec;
  auto write = [](const fs::path& path, fsx::ByteSpan data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    return static_cast<bool>(out);
  };
  fs::path made_dir;
  for (const auto& [name, data] : files) {
    fs::path path = root / name;
    if (path.parent_path() != made_dir) {
      made_dir = path.parent_path();
      fs::create_directories(made_dir, ec);
    }
    if (!write(path, data)) return false;
  }
  return write(root / ".fsx-manifest", fsx::SerializeManifest(manifest));
}

}  // namespace

int RunMirrorApply(const Args& args, Result& result) {
  const fs::path replica =
      fs::path(args.workdir) / ("mirror-" + std::to_string(::getpid()));
  std::error_code ec;
  double setup_s = 0;
  const Mirror mirror = RepeatSetup(&setup_s, [&] {
    const fsx::TreePair pair = fsx::MakeTreeWorkload(MirrorTreeProfile());
    const SeedRelabel relabel(args.seed);
    Mirror m;
    m.version[0] = relabel(pair.old_tree);
    m.version[1] = relabel(pair.new_tree);
    m.manifest[0] = fsx::BuildManifest(m.version[0]);
    m.manifest[1] = fsx::BuildManifest(m.version[1]);
    return m;
  });
  // Seeding the replica is the benchmark's own scaffolding (plain file
  // writes), so it stays out of setup_s: creating 20k files takes
  // anywhere from 0.2 to 7 s of kernel time from one run to the next.
  const uint64_t seed0 = NowNs();
  if (!SeedReplica(replica, mirror.version[0], mirror.manifest[0])) {
    result.Check(false, "mirror-apply: cannot seed the replica");
    return 1;
  }
  // Start the measurement from a clean disk: the seeding's dirty pages
  // would otherwise be written back under the first timed fsyncs.
  if (int dir = ::open(replica.c_str(), O_RDONLY | O_DIRECTORY); dir >= 0) {
    ::syncfs(dir);
    ::close(dir);
  }
  Log("mirror-apply: %zu -> %zu files, set-up %.3f s (median of %d), "
      "replica seeded and flushed in %.3f s",
      mirror.version[0].size(), mirror.version[1].size(), setup_s,
      kSetupRepeats, (NowNs() - seed0) / 1e9);
  const uint64_t server_bytes = (CollectionBytes(mirror.version[0]) +
                                 CollectionBytes(mirror.version[1])) /
                                2;

  int on_disk = 0;  // the version the replica holds
  std::optional<fsx::TrafficStats> expected[2];
  struct Step {
    fsx::TreeSyncResult sync;
    fsx::store::ApplyReport apply;
    uint64_t apply_ns = 0;
  };
  // One iteration: sync the replica's version to the other one and
  // apply it. Checked against the served version, the replica's
  // manifest, conflicts, and the direction's first traffic.
  auto iterate = [&](fsx::SimulatedChannel& channel, TimingChannel* traced,
                     fsx::obs::SyncObserver* obs, Step* out) {
    const int from = on_disk;
    const int to = 1 - from;
    SyncSample s;
    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    if (traced != nullptr) traced->Begin();
    auto r = fsx::SyncCollectionTree(mirror.version[from], mirror.version[to],
                                     fsx::TreeSyncParams{}, channel, obs);
    if (traced != nullptr) traced->End();
    if (!r.ok()) {
      result.Check(false, "mirror-apply sync: " + r.status().ToString());
      return s;
    }
    const uint64_t apply0 = NowNs();
    auto report = fsx::store::ApplyTree(replica.string(), r->reconstructed,
                                        mirror.manifest[from]);
    const uint64_t end = NowNs();
    s.wall_ns = end - t0;
    s.cpu_ns = ProcessCpuNs() - cpu0;
    if (!report.ok()) {
      result.Check(false, "mirror-apply apply: " + report.status().ToString());
      return s;
    }
    on_disk = to;
    if (!expected[to].has_value()) expected[to] = channel.stats();
    const fsx::TrafficStats& got = channel.stats();
    std::optional<fsx::Manifest> disk = DiskManifest(replica);
    s.ok = r->reconstructed == mirror.version[to] &&
           report->conflicts.empty() && disk.has_value() &&
           *disk == mirror.manifest[to] &&
           got.client_to_server_bytes ==
               expected[to]->client_to_server_bytes &&
           got.server_to_client_bytes ==
               expected[to]->server_to_client_bytes &&
           got.roundtrips == expected[to]->roundtrips;
    if (out != nullptr) {
      out->sync = std::move(*r);
      out->apply = std::move(*report);
      out->apply_ns = end - apply0;
    }
    return s;
  };
  auto plain = [&] {
    fsx::SimulatedChannel channel;
    return iterate(channel, nullptr, nullptr, nullptr);
  };

  // Warm-up: one iteration each way fixes both directions' traffic.
  result.Attempt(plain().ok);
  result.Attempt(plain().ok);
  if (!expected[0].has_value() || !expected[1].has_value()) return 1;
  const double wire_bytes =
      (expected[0]->total_bytes() + expected[1]->total_bytes()) / 2.0;

  if (!args.trace) {
    LoopStats loop = ClosedLoop(args.seconds, result, plain);
    SetEndToEnd(result, loop, 1, server_bytes, wire_bytes, setup_s);
  } else {
    LoopStats untraced, traced;
    TracedSums sums;
    double examined = 0;
    double committed = 0;
    auto traced_iteration = [&] {
      TimingChannel channel;
      fsx::obs::SyncObserver observer;
      Step step;
      SyncSample s = iterate(channel, &channel, &observer, &step);
      if (!s.ok) return s;
      sums.AddSync(channel, observer, channel.stats(), result);
      sums.Add("core.files_sessioned",
               static_cast<double>(step.sync.files_sessioned));
      sums.Add("reconcile.files_adopted",
               static_cast<double>(step.sync.files_adopted));
      sums.Add("compress.files_bundled",
               static_cast<double>(step.sync.files_small));
      const double step_examined = static_cast<double>(
          step.apply.files.size() + step.apply.conflicts.size());
      examined += step_examined;
      committed += static_cast<double>(step.apply.files_committed);
      sums.Add("store.apply_ms", step.apply_ns / 1e6);
      sums.Add("store.files_examined", step_examined);
      sums.Add("store.files_committed",
               static_cast<double>(step.apply.files_committed));
      result.Check(channel.times().Total() + step.apply_ns <= s.wall_ns,
                   "layer self times exceed the iteration's wall time");
      return s;
    };
    TracedLoop(args.seconds, result, plain, traced_iteration, &untraced,
               &traced);
    sums.SetMeans(result, traced.wall_ms.size());
    result.Set("store.useful_ratio",
               examined == 0 ? 0.0 : committed / examined);
    result.Set("trace.overhead_ms", Quantile(traced.wall_ms, 0.5) -
                                        Quantile(untraced.wall_ms, 0.5));
    ReplayKernels(mirror.version[0], mirror.version[1], 0.25, result);
  }

  // Final gate: the whole replica, read back from disk, is the version
  // the last iteration served.
  auto loaded = fsx::LoadTree(replica.string());
  result.Check(loaded.ok() && *loaded == mirror.version[on_disk],
               "mirror-apply: replica on disk differs from the served tree");
  fs::remove_all(replica, ec);
  return 0;
}

}  // namespace perfbench
