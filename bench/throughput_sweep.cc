// GB/s-per-core sweep over the sync hot paths, scalar vs hardware
// dispatch: CRC32C (slice-by-4 vs SSE4.2/ARMv8 three-stream), the
// rolling weak-hash scan loop (tabled Adler), batched strong-
// hash verification (scalar MD5 vs the 4-lane and, with AVX-512, the
// 16-lane kernel), whole-file fingerprints over a 20k-file tree (scalar
// vs the lane-refill batch at either width), and the two
// end-to-end kernels those feed — server signature generation
// (MakeZsyncControl) and client scan (PlanFromControl).
//
// Run with --json[=path] to emit BENCH_throughput_sweep.json
// (fsx-bench-v1, with the per-result "throughput" object). Run with
// --check to enforce the PR acceptance bars as exit status:
//   - HW CRC32C >= 3x slice-by-4 (only on machines exposing a HW tier);
//   - batched MD5 verify >= 1.0x scalar (it must never lose);
//   - batched whole-file fingerprints >= 1.0x scalar (the same bar);
//   - 16-lane whole-file fingerprints >= 1.5x the 4-lane kernel (only on
//     machines with the AVX-512 tier, and not under FSX_FORCE_SCALAR);
//   - e2e client scan under HW dispatch >= 0.9x scalar (neutrality
//     smoke: the weak/strong hashes there never touch CRC32C, so the
//     dispatch layer must be invisible modulo timer noise).
// The gates over like-for-like kernels whose ratio sits near its bar
// (both md5-files gates, e2e client scan) time the two sides
// against each other (see TimePaired): host load that slows both sides
// leaves them in place.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fsync/hash/crc32c.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/hash/tabled_adler.h"
#include "fsync/index/scan.h"
#include "fsync/multiround/multiround.h"
#include "fsync/net/channel.h"
#include "fsync/simd/crc32c_kernels.h"
#include "fsync/simd/dispatch.h"
#include "fsync/util/random.h"
#include "fsync/workload/tree.h"
#include "fsync/zsync/zsync.h"

namespace fsx {
namespace {

constexpr size_t kBufBytes = 8 * 1024 * 1024;  // hot-loop working set
constexpr int kReps = 5;                       // best-of reps per cell

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

Bytes MakeBuffer(Rng& rng, size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; i += 8) {
    uint64_t v = rng.Next();
    for (size_t k = 0; k < 8 && i + k < n; ++k) {
      b[i + k] = static_cast<uint8_t>(v >> (8 * k));
    }
  }
  return b;
}

// Best-of-kReps wall time for `run` (which returns a value to sink).
uint64_t BestOf(const std::function<uint64_t()>& run) {
  uint64_t best = ~uint64_t{0};
  for (int r = 0; r < kReps; ++r) {
    bench::WallTimer t;
    g_sink = g_sink + run();
    uint64_t ns = t.Ns();
    best = ns < best ? ns : best;
  }
  return best;
}

double GibPerS(uint64_t bytes, uint64_t ns) {
  return ns == 0 ? 0.0
                 : static_cast<double>(bytes) * 1e9 /
                       (static_cast<double>(ns) * 1073741824.0);
}

struct Row {
  std::string name;
  std::string tier;
  uint64_t bytes = 0;
  uint64_t ns = 0;
  double Rate() const { return GibPerS(bytes, ns); }
};

void Print(const Row& row) {
  std::printf("  %-28s %-8s %8.3f GiB/s\n", row.name.c_str(),
              row.tier.c_str(), row.Rate());
}

// ---- CRC32C: whole-buffer checksum, per dispatch tier. ----
Row BenchCrc(ByteSpan buf, simd::DispatchTier tier) {
  simd::ForceTier(tier);
  Row row{"crc32c", simd::TierName(tier), buf.size(), 0};
  row.ns = BestOf([&] {
    return static_cast<uint64_t>(Crc32cUpdate(~0u, buf));
  });
  simd::ForceTier(std::nullopt);
  return row;
}

// Thread CPU time in ns. Unlike wall time it leaves out the time the
// host takes this thread off its core.
uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Two rows timed against each other for a --check gate: their best reps,
// and `speedup`, the median over pairs of back-to-back reps of a's time
// over b's. Both reps of a pair see the same host load, which side runs
// first alternates, and the reps time thread CPU, which leaves out stolen
// time, so neither a slow stretch nor one lucky rep moves the gate.
// `cpu_ns_a` / `cpu_ns_b` run one rep and return its thread CPU time.
struct PairedRows {
  Row a;
  Row b;
  double speedup = 0;  // of b over a
};

template <typename CpuNsA, typename CpuNsB>
PairedRows TimePaired(Row a, const CpuNsA& cpu_ns_a, Row b,
                      const CpuNsB& cpu_ns_b) {
  constexpr int kPairs = 3 * kReps;
  a.ns = b.ns = ~uint64_t{0};
  std::vector<double> speedups;
  for (int r = 0; r < kPairs; ++r) {
    uint64_t a_ns = 0;
    uint64_t b_ns = 0;
    if (r % 2 == 0) {
      a_ns = cpu_ns_a();
      b_ns = cpu_ns_b();
    } else {
      b_ns = cpu_ns_b();
      a_ns = cpu_ns_a();
    }
    a.ns = std::min(a.ns, a_ns);
    b.ns = std::min(b.ns, b_ns);
    speedups.push_back(static_cast<double>(a_ns) /
                       static_cast<double>(std::max<uint64_t>(b_ns, 1)));
  }
  std::nth_element(speedups.begin(), speedups.begin() + kPairs / 2,
                   speedups.end());
  return {std::move(a), std::move(b), speedups[kPairs / 2]};
}

// ---- Rolling scan: slide a window over the buffer with no matching
// keys — the per-byte cost every client pays on unmatched data. Every
// verify call bumps a hit count that reaches the sink, so the scan has
// an observable effect: with the window step inlined, a verify with no
// side effect lets the compiler delete the whole loop. ----
Row BenchScan(ByteSpan buf, uint64_t block_size) {
  Row row{"scan-adler", "scalar", buf.size(), 0};
  row.ns = BestOf([&] {
    std::vector<uint32_t> keys = {0xFFFFFFFFu};  // 32-bit key: ~no hits
    std::vector<uint64_t> pos;
    uint64_t hits = 0;
    ScanForKeys(
        buf, block_size, 32, keys,
        [&hits](size_t, uint64_t) {
          ++hits;
          return false;
        },
        pos);
    return pos[0] + hits;
  });
  return row;
}

// ---- The MD5 kernels: scalar Md5 one message at a time, or the batch
// (hash/md5_batch.h) pinned to its 4-lane kernel (scalar tier) or its
// 16-lane kernel (AVX-512 tier). ----
enum class Md5Kernel { kScalar, kBatch4, kBatch16 };

const char* KernelName(Md5Kernel k) {
  switch (k) {
    case Md5Kernel::kScalar:
      return "scalar";
    case Md5Kernel::kBatch4:
      return "batch4";
    case Md5Kernel::kBatch16:
      return "batch16";
  }
  return "unknown";
}

// Pins the dispatch tier that selects batch kernel `k` for one scope.
class KernelScope {
 public:
  explicit KernelScope(Md5Kernel k) {
    simd::ForceTier(k == Md5Kernel::kBatch16 ? simd::DispatchTier::kAvx512
                                             : simd::DispatchTier::kScalar);
  }
  ~KernelScope() { simd::ForceTier(std::nullopt); }
};

// True when this host runs the 16-lane kernel. Under FSX_FORCE_SCALAR the
// 16-lane rows and their gate are left out: that run pins the 4-lane
// kernel.
bool HasBatch16() {
  const std::vector<simd::DispatchTier> tiers = simd::AvailableTiers();
  return !simd::ForceScalarFromEnv() &&
         std::find(tiers.begin(), tiers.end(), simd::DispatchTier::kAvx512) !=
             tiers.end();
}

// ---- Strong-hash verify: hash n equal-size blocks with kernel `k`. ----
Row BenchVerify(ByteSpan buf, uint64_t block_size, Md5Kernel k) {
  const size_t n = buf.size() / block_size;
  std::vector<ByteSpan> blocks(n);
  for (size_t i = 0; i < n; ++i) {
    blocks[i] = buf.subspan(i * block_size, block_size);
  }
  std::vector<uint64_t> out(n);
  Row row{"md5-verify", KernelName(k), n * block_size, 0};
  KernelScope scope(k);
  row.ns = BestOf([&] {
    if (k != Md5Kernel::kScalar) {
      Md5HashBitsBatch(blocks.data(), n, 64, 0xA11, out.data());
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[i] = Md5::HashBits(blocks[i], 64, 0xA11);
      }
    }
    return out[0];
  });
  return row;
}

// ---- Whole-file fingerprints: every file of a tree, one scalar
// FileFingerprint each vs one Md5Batch pass over them all (the shape of
// the manifest builders). The files differ in length, so the batch
// rows measure the lane-refill scheduler. ----
uint64_t FileHashesCpuNs(const std::vector<ByteSpan>& files, Md5Kernel k) {
  std::vector<Fingerprint> out(files.size());
  KernelScope scope(k);
  const uint64_t start = ThreadCpuNs();
  if (k != Md5Kernel::kScalar) {
    Md5Batch(files.data(), files.size(), out.data());
  } else {
    for (size_t i = 0; i < files.size(); ++i) {
      out[i] = FileFingerprint(files[i]);
    }
  }
  const uint64_t ns = ThreadCpuNs() - start;
  g_sink = g_sink + out.back()[0];
  return ns;
}

// md5-files under kernels a and b, timed against each other.
PairedRows BenchFileHashes(const std::vector<ByteSpan>& files,
                           uint64_t bytes, Md5Kernel a, Md5Kernel b) {
  return TimePaired(
      Row{"md5-files", KernelName(a), bytes, 0},
      [&] { return FileHashesCpuNs(files, a); },
      Row{"md5-files", KernelName(b), bytes, 0},
      [&] { return FileHashesCpuNs(files, b); });
}

// ---- End-to-end kernels: zsync signature generation and client scan
// over a shifted copy (every block matches, at an offset the rolling
// scan must find). ----
Row BenchServerSignature(ByteSpan current, simd::DispatchTier tier) {
  simd::ForceTier(tier);
  ZsyncParams params;
  params.block_size = 2048;
  Row row{"e2e-server-signature", simd::TierName(tier), current.size(), 0};
  row.ns = BestOf([&] {
    auto control = MakeZsyncControl(current, params);
    return control.ok() ? control.value().size() : 0;
  });
  simd::ForceTier(std::nullopt);
  return row;
}

uint64_t ClientScanCpuNs(ByteSpan outdated, ByteSpan control,
                         simd::DispatchTier tier) {
  simd::ForceTier(tier);
  const uint64_t start = ThreadCpuNs();
  auto plan = PlanFromControl(outdated, control);
  const uint64_t ns = ThreadCpuNs() - start;
  simd::ForceTier(std::nullopt);
  g_sink = g_sink + (plan.ok() ? plan.value().sources.size() : 0);
  return ns;
}

// e2e-client-scan under the scalar tier and under `hw`, timed against
// each other.
PairedRows BenchClientScans(ByteSpan outdated, ByteSpan control,
                            simd::DispatchTier hw) {
  const simd::DispatchTier scalar = simd::DispatchTier::kScalar;
  return TimePaired(
      Row{"e2e-client-scan", simd::TierName(scalar), outdated.size(), 0},
      [&] { return ClientScanCpuNs(outdated, control, scalar); },
      Row{"e2e-client-scan", simd::TierName(hw), outdated.size(), 0},
      [&] { return ClientScanCpuNs(outdated, control, hw); });
}

// ---- Full multiround session: per-round hashing, the client's rolling
// scans and the literal stream end to end. ----
Row BenchMultiround(ByteSpan outdated, ByteSpan current) {
  Row row{"e2e-multiround", "adler", outdated.size(), 0};
  row.ns = BestOf([&] {
    SimulatedChannel channel;
    auto r = MultiroundSynchronize(outdated, current, MultiroundParams{},
                                   channel);
    return r.ok() ? r.value().reconstructed.size() : 0;
  });
  return row;
}

int Main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }
  bench::JsonReport report("throughput_sweep",
                           "Hot-path GB/s per core, scalar vs hardware "
                           "dispatch");
  report.ParseArgs(argc, argv);
  bench::PrintHeader("throughput_sweep",
                     "hot-path bandwidth: CRC32C / scan / verify / e2e");
  std::printf("dispatch: %s\n\n", simd::DescribeDispatch().c_str());

  Rng rng(0xBE7C4);
  Bytes buf = MakeBuffer(rng, kBufBytes);
  report.AddWorkload("synthetic-uniform", 1, buf.size());

  std::vector<Row> rows;
  auto add = [&](Row row) {
    Print(row);
    report.Add(row.name)
        .Config("dispatch_tier", row.tier)
        .Throughput(row.bytes, row.ns)
        .Total(0);
    rows.push_back(std::move(row));
  };
  auto rate_of = [&](const char* name, const char* tier) {
    for (const Row& r : rows) {
      if (r.name == name && r.tier == tier) {
        return r.Rate();
      }
    }
    return 0.0;
  };

  for (simd::DispatchTier tier : simd::AvailableTiers()) {
    add(BenchCrc(buf, tier));
  }
  add(BenchScan(buf, 2048));
  const bool batch16 = HasBatch16();
  add(BenchVerify(buf, 2048, Md5Kernel::kScalar));
  add(BenchVerify(buf, 2048, Md5Kernel::kBatch4));
  if (batch16) {
    add(BenchVerify(buf, 2048, Md5Kernel::kBatch16));
  }
  // The mirror-apply tree: 20,003 files of 64 B - 4 KiB.
  const Collection tree =
      MakeTreeWorkload(ReleaseTreeProfile(20000)).new_tree;
  std::vector<ByteSpan> files;
  uint64_t file_bytes = 0;
  for (const auto& [name, data] : tree) {
    files.push_back(data);
    file_bytes += data.size();
  }
  report.AddWorkload("release-tree-20000", tree.size(), file_bytes);
  const PairedRows file_hashes = BenchFileHashes(
      files, file_bytes, Md5Kernel::kScalar, Md5Kernel::kBatch4);
  add(file_hashes.a);
  add(file_hashes.b);
  std::optional<PairedRows> wide_file_hashes;
  if (batch16) {
    // Times batch4 again, paired with batch16, for the 16-lane gate.
    wide_file_hashes = BenchFileHashes(files, file_bytes, Md5Kernel::kBatch4,
                                       Md5Kernel::kBatch16);
    add(wide_file_hashes->b);
  }

  // The e2e pair syncs `buf` against a copy shifted by half a block, so
  // every block exists in the haystack but never on its natural
  // boundary — the rolling scan runs at full per-byte cost.
  Bytes shifted(buf.begin() + 1024, buf.end());
  ZsyncParams params;
  params.block_size = 2048;
  auto control = MakeZsyncControl(buf, params);
  std::optional<simd::DispatchTier> hw;
  for (simd::DispatchTier tier : simd::AvailableTiers()) {
    add(BenchServerSignature(buf, tier));
    if (tier != simd::DispatchTier::kScalar) {
      hw = tier;
    }
  }
  double client_scan_speedup = 0;
  if (control.ok()) {
    // On a scalar-only host both sides of the pair are scalar; only one
    // row is reported.
    PairedRows client = BenchClientScans(
        shifted, control.value(), hw.value_or(simd::DispatchTier::kScalar));
    add(client.a);
    if (hw.has_value()) {
      add(client.b);
    }
    client_scan_speedup = client.speedup;
  }
  add(BenchMultiround(shifted, buf));

  int rc = report.Write();
  if (check && rc == 0) {
    auto gate = [&](const char* what, double got, double bar) {
      bool ok = got >= bar;
      std::printf("check: %-34s %5.2fx (bar %.2fx) %s\n", what, got, bar,
                  ok ? "ok" : "FAIL");
      if (!ok) rc = 1;
    };
    if (hw.has_value()) {
      gate("crc32c hw vs scalar",
           rate_of("crc32c", simd::TierName(*hw)) /
               rate_of("crc32c", "scalar"),
           3.0);
      gate("e2e-client-scan hw vs scalar", client_scan_speedup, 0.9);
    } else {
      std::printf("check: no hardware tier on this machine; CRC/e2e "
                  "dispatch gates skipped\n");
    }
    gate("md5 batch4 vs scalar",
         rate_of("md5-verify", "batch4") / rate_of("md5-verify", "scalar"),
         1.0);
    gate("md5-files batch4 vs scalar", file_hashes.speedup, 1.0);
    if (wide_file_hashes.has_value()) {
      gate("md5-files batch16 vs batch4", wide_file_hashes->speedup, 1.5);
    } else {
      std::printf("check: no 16-lane MD5 kernel in this run; batch16 gate "
                  "skipped\n");
    }
  }
  return rc;
}

}  // namespace
}  // namespace fsx

int main(int argc, char** argv) { return fsx::Main(argc, argv); }
