// Ablation: identifying the changed files. The paper uses a plain
// per-file fingerprint exchange ("efficient enough for our data sets")
// and defers smarter schemes to the changed-file-identification
// literature it surveys; this bench quantifies that tradeoff with the
// manifest walk every tree driver and the daemon run (ManifestReconcile):
// hash-trie probing wins when few files changed, the flat exchange wins
// under heavy churn.
#include <cstdio>

#include "bench/bench_util.h"
#include "fsync/reconcile/manifest.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

int Run(bench::JsonReport& report) {
  const int kFiles = 5000;
  Rng rng(0xF11E5);
  Manifest client;
  for (int i = 0; i < kFiles; ++i) {
    Fingerprint fp;
    Bytes r = rng.RandomBytes(16);
    std::copy(r.begin(), r.end(), fp.begin());
    client["pages/p" + std::to_string(i) + ".html"] = ManifestEntry{fp};
  }
  uint64_t flat = FullExchangeBytes(client);
  report.AddWorkload("digest-map", kFiles, flat);
  report.Add("flat fingerprint exchange").Total(flat);
  std::printf("collection: %d files; flat fingerprint exchange = %.1f KB\n\n",
              kFiles, flat / 1024.0);
  std::printf("%-18s %14s %10s %14s\n", "changed fraction",
              "walk KB", "rounds", "vs flat");

  for (double frac : {0.0, 0.001, 0.01, 0.05, 0.2, 0.5}) {
    Manifest server = client;
    int changes = static_cast<int>(frac * kFiles);
    auto it = server.begin();
    for (int i = 0; i < changes && it != server.end(); ++i) {
      std::advance(it, 1 + rng.Uniform(3));
      if (it == server.end()) {
        break;
      }
      it->second.fingerprint[rng.Uniform(16)] ^= 0x5A;
    }
    SimulatedChannel channel;
    obs::SyncObserver observer;
    bench::WallTimer timer;
    auto r = ManifestReconcile(client, server, channel, &observer);
    if (!r.ok()) {
      std::fprintf(stderr, "reconcile failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    char label[48];
    std::snprintf(label, sizeof(label), "manifest walk, %.1f%% changed",
                  100 * frac);
    report.Add(label)
        .Config("changed_fraction", std::to_string(frac))
        .Observed(observer)
        .Rounds(static_cast<uint64_t>(r->rounds))
        .WallNs(timer.Ns());
    std::printf("%17.1f%% %14.1f %10d %13.2fx\n", 100 * frac,
                r->stats.total_bytes() / 1024.0, r->rounds,
                static_cast<double>(flat) / r->stats.total_bytes());
  }
  std::printf("\n(ratios > 1 favour the manifest walk; the flat exchange\n"
              " needs no extra roundtrips, which the trie pays in rounds)\n");
  return 0;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) {
  fsx::bench::JsonReport report(
      "ablation_reconcile",
      "changed-file identification: flat fingerprints vs manifest walk");
  report.ParseArgs(argc, argv);
  fsx::bench::PrintHeader(
      "Ablation (reconcile)",
      "changed-file identification: flat fingerprints vs manifest walk");
  int rc = fsx::Run(report);
  return rc != 0 ? rc : report.Write();
}
