// Microbenchmark for the shared matching-core index: the flat
// open-addressing BlockIndex (with its 2^16-bit prefilter) against the
// `std::unordered_map<uint32_t, std::vector<uint32_t>>` tables it
// replaced in the protocol scan loops. Three workloads: table build,
// probe-hit (every key present), and probe-miss (the per-byte scan's
// common case — almost no window position matches a block).
//
// Run with --json[=path] to emit BENCH_micro_index.json (fsx-bench-v1).
// The PR acceptance bar is flat >= 1.5x map on the probe-miss workload.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "fsync/index/block_index.h"
#include "fsync/util/random.h"

namespace fsx {
namespace {

constexpr size_t kBlocks = 16 * 1024;    // typical signature-table size
constexpr size_t kProbes = 8'000'000;    // window positions scanned
constexpr int kReps = 3;                 // best-of reps per cell

// Defeats dead-code elimination without memory fences.
volatile uint64_t g_sink = 0;

std::vector<uint32_t> MakeKeys(Rng& rng, size_t n) {
  std::vector<uint32_t> keys(n);
  for (uint32_t& k : keys) {
    k = static_cast<uint32_t>(rng.Next());
  }
  return keys;
}

uint64_t BestOf(int reps, const std::function<uint64_t()>& run) {
  uint64_t best = ~uint64_t{0};
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer t;
    g_sink = g_sink + run();
    uint64_t ns = t.Ns();
    best = ns < best ? ns : best;
  }
  return best;
}

struct Cell {
  uint64_t flat_ns = 0;
  uint64_t map_ns = 0;
  double Speedup() const {
    return map_ns == 0 ? 0.0
                       : static_cast<double>(map_ns) /
                             static_cast<double>(flat_ns);
  }
};

Cell BenchBuild(const std::vector<uint32_t>& keys) {
  Cell c;
  c.flat_ns = BestOf(kReps, [&] {
    BlockIndex index;
    index.Reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      index.Insert(keys[i], i, static_cast<uint32_t>(i));
    }
    return static_cast<uint64_t>(index.size());
  });
  c.map_ns = BestOf(kReps, [&] {
    std::unordered_map<uint32_t, std::vector<uint32_t>> map;
    map.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      map[keys[i]].push_back(static_cast<uint32_t>(i));
    }
    return static_cast<uint64_t>(map.size());
  });
  return c;
}

// Probes with keys drawn from `probe_keys`; `hits` is informational.
Cell BenchProbe(const std::vector<uint32_t>& table_keys,
                const std::vector<uint32_t>& probe_keys) {
  BlockIndex index;
  index.Reserve(table_keys.size());
  std::unordered_map<uint32_t, std::vector<uint32_t>> map;
  map.reserve(table_keys.size());
  for (size_t i = 0; i < table_keys.size(); ++i) {
    index.Insert(table_keys[i], i, static_cast<uint32_t>(i));
    map[table_keys[i]].push_back(static_cast<uint32_t>(i));
  }

  Cell c;
  c.flat_ns = BestOf(kReps, [&] {
    uint64_t found = 0;
    for (uint32_t key : probe_keys) {
      if (index.MaybeContains(key)) {
        const BlockIndex::Entry* e = index.FindFirst(key);
        if (e != nullptr) {
          found += e->idx;
        }
      }
    }
    return found;
  });
  c.map_ns = BestOf(kReps, [&] {
    uint64_t found = 0;
    for (uint32_t key : probe_keys) {
      auto it = map.find(key);
      if (it != map.end()) {
        found += it->second.front();
      }
    }
    return found;
  });
  return c;
}

void Report(const char* what, const Cell& c, uint64_t ops) {
  std::printf("  %-12s flat %8.1f ms   map %8.1f ms   speedup %.2fx"
              "   (%.1f ns/op flat)\n",
              what, c.flat_ns / 1e6, c.map_ns / 1e6, c.Speedup(),
              static_cast<double>(c.flat_ns) / ops);
}

int Main(int argc, char** argv) {
  bench::JsonReport report("micro_index",
                           "Flat block index vs unordered_map: build and "
                           "probe costs of the matching core");
  report.ParseArgs(argc, argv);

  Rng rng(7);
  std::vector<uint32_t> table_keys = MakeKeys(rng, kBlocks);

  // Probe-hit: every probe is a present key (cycled).
  std::vector<uint32_t> hit_probes(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    hit_probes[i] = table_keys[i % table_keys.size()];
  }
  // Probe-miss: random 32-bit keys; with 16K entries in a 2^32 key
  // space, essentially every probe misses — the scan loop's common case.
  std::vector<uint32_t> miss_probes = MakeKeys(rng, kProbes);

  bench::PrintHeader("micro_index",
                     "flat BlockIndex vs unordered_map (matching core)");
  std::printf("blocks=%zu probes=%zu reps=%d (best-of)\n\n", kBlocks,
              kProbes, kReps);

  Cell build = BenchBuild(table_keys);
  Report("build", build, kBlocks);
  Cell hit = BenchProbe(table_keys, hit_probes);
  Report("probe-hit", hit, kProbes);
  Cell miss = BenchProbe(table_keys, miss_probes);
  Report("probe-miss", miss, kProbes);
  std::printf("\nsink=%" PRIu64 "\n", g_sink);

  report.AddWorkload("synthetic-weak-hashes", 1,
                     kBlocks * sizeof(uint32_t) +
                         kProbes * sizeof(uint32_t));
  auto add = [&](const std::string& name, uint64_t ns, uint64_t ops) {
    report.Add(name)
        .Config("blocks", uint64_t{kBlocks})
        .Config("ops", ops)
        .WallNs(ns)
        .Total(ops * sizeof(uint32_t));
  };
  add("flat_build", build.flat_ns, kBlocks);
  add("map_build", build.map_ns, kBlocks);
  add("flat_probe_hit", hit.flat_ns, kProbes);
  add("map_probe_hit", hit.map_ns, kProbes);
  add("flat_probe_miss", miss.flat_ns, kProbes);
  add("map_probe_miss", miss.map_ns, kProbes);

  if (miss.Speedup() < 1.5) {
    std::printf("WARNING: probe-miss speedup %.2fx below the 1.5x bar\n",
                miss.Speedup());
  }
  return report.Write();
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) { return fsx::Main(argc, argv); }
