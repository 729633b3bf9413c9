// Ablation: the one-way deployments (paper Section 7's asymmetric cases)
// against the interactive protocol. zsync publishes a fixed-block control
// file and serves byte ranges; the hash cast publishes the full recursive
// hash tree and serves a delta; the interactive protocol tailors every
// round to the client but needs a live server. Each column is one file
// pair at several staleness levels.
#include <cstdio>

#include "bench/bench_util.h"
#include "fsync/core/broadcast.h"
#include "fsync/core/session.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"
#include "fsync/zsync/zsync.h"

namespace fsx {
namespace {

int Run(bench::JsonReport& report) {
  Rng rng(0x0E1);
  Bytes base = SynthSourceFile(rng, 400 * 1024);
  std::vector<Bytes> versions = {base};
  for (int i = 0; i < 4; ++i) {
    EditProfile ep;
    ep.num_edits = 12;
    versions.push_back(ApplyEdits(versions.back(), ep, rng));
  }
  const Bytes& latest = versions.back();
  report.AddWorkload("synthetic-document", 1, latest.size());
  std::printf("document: %zu KiB, 4 staleness levels\n\n",
              latest.size() / 1024);

  ZsyncParams zp;
  auto control = MakeZsyncControl(latest, zp);
  if (!control.ok()) return 1;
  HashCastConfig hc;
  auto cast = BuildHashCast(latest, hc);
  if (!cast.ok()) return 1;
  std::printf("published artifacts: zsync control %.1f KiB, hash cast "
              "%.1f KiB (each paid once per update)\n\n",
              control->size() / 1024.0, cast->size() / 1024.0);

  std::printf("%-6s %22s %22s %16s\n", "lag", "zsync req+data KiB",
              "hashcast req+delta KiB", "interactive KiB");
  for (int lag = 1; lag <= 4; ++lag) {
    const Bytes& f_old = versions[versions.size() - 1 - lag];

    auto plan = PlanFromControl(f_old, *control);
    if (!plan.ok()) return 1;
    Bytes zreq = EncodeRangeRequest(*plan);
    auto zdata = ServeRanges(latest, zreq);
    if (!zdata.ok()) return 1;
    auto zout = ApplyZsync(f_old, *plan, *zdata);
    if (!zout.ok() || *zout != latest) {
      std::fprintf(stderr, "zsync mismatch at lag %d\n", lag);
      return 1;
    }

    auto map = ApplyHashCast(f_old, *cast);
    if (!map.ok()) return 1;
    Bytes creq = EncodeCastRequest(*map);
    auto cdelta = MakeCastDelta(latest, creq, hc);
    if (!cdelta.ok()) return 1;
    auto cout_ = ApplyCastDelta(f_old, *map, *cdelta);
    if (!cout_.ok() || *cout_ != latest) {
      std::fprintf(stderr, "hashcast mismatch at lag %d\n", lag);
      return 1;
    }

    SyncConfig sc;
    SimulatedChannel channel;
    obs::SyncObserver observer;
    bench::WallTimer timer;
    auto inter = SynchronizeFile(f_old, latest, sc, channel, &observer);
    if (!inter.ok()) return 1;

    char label[48];
    std::snprintf(label, sizeof(label), "zsync, lag %d", lag);
    report.Add(label)
        .Config("lag", static_cast<uint64_t>(lag))
        .Total(zreq.size() + zdata->size());
    std::snprintf(label, sizeof(label), "hashcast, lag %d", lag);
    report.Add(label)
        .Config("lag", static_cast<uint64_t>(lag))
        .Total(creq.size() + cdelta->size());
    std::snprintf(label, sizeof(label), "interactive, lag %d", lag);
    report.Add(label)
        .Config("lag", static_cast<uint64_t>(lag))
        .Observed(observer)
        .Rounds(inter->stats.roundtrips)
        .WallNs(timer.Ns());

    std::printf("%-6d %22.1f %22.1f %16.1f\n", lag,
                (zreq.size() + zdata->size()) / 1024.0,
                (creq.size() + cdelta->size()) / 1024.0,
                inter->stats.total_bytes() / 1024.0);
  }
  std::printf(
      "\n(one-way columns exclude the published artifact; add its\n"
      " amortized share for a given audience size. zsync fetches raw\n"
      " ranges at block granularity; the hash cast's finer map + delta\n"
      " coder transfers less per client at a larger published size)\n");
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "ablation_oneway",
      "zsync-style vs hash-cast vs interactive synchronization");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader(
      "Ablation (one-way)",
      "zsync-style vs hash-cast vs interactive synchronization");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
