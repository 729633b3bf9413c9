// Shared plumbing for the repository benchmark: command-line arguments,
// clocks, quantiles, and the result line every run ends with. Each
// workload fills one Result; main() prints it as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (perfbench/NOTES.md lists both and what each measures).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fsync/core/collection.h"
#include "fsync/workload/tree.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for on-disk replicas (inside the checkout).
  std::string workdir = ".bench_build/work";
};

/// Progress line on stderr, stamped with seconds since the run began.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Monotonic wall clock, nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// User + system CPU of the whole process, nanoseconds.
uint64_t ProcessCpuNs();
/// CPU of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
uint64_t ThreadCpuNs();
/// Peak resident set of the process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 if empty.
double Quantile(std::vector<double> samples, double q);

/// Total payload bytes of a collection.
uint64_t CollectionBytes(const fsx::Collection& c);

/// How many times each run builds its inputs; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Runs `make` kSetupRepeats times, timing each call, and returns the
/// last result; `*median_s` gets the median set-up time in seconds. Each
/// earlier result is destroyed before the next call starts its clock.
template <typename Make>
auto RepeatSetup(double* median_s, Make&& make) {
  std::optional<decltype(make())> made;
  std::vector<double> secs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    made.reset();
    const uint64_t t0 = NowNs();
    made.emplace(make());
    secs.push_back((NowNs() - t0) / 1e9);
  }
  *median_s = Quantile(std::move(secs), 0.5);
  return std::move(*made);
}

/// A named metric and its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in output order (BENCHMARK.json mirrors it).
inline constexpr MetricSpec kEndToEnd[] = {
    {"sync_p50_ms", "ms"},     {"sync_p95_ms", "ms"},
    {"syncs_per_s", "1/s"},    {"sync_mb_s", "MB/s"},
    {"wire_bytes", "bytes"},   {"cpu_ms_per_sync", "ms"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
};

/// The per-layer metrics of the traced run, in output order. Times,
/// bytes and counts are means per sync; a layer a workload never enters
/// reads 0 (NOTES.md says which).
inline constexpr MetricSpec kPerLayer[] = {
    {"core.client_ms", "ms"},
    {"core.server_ms", "ms"},
    {"reconcile.ms", "ms"},
    {"compress.ms", "ms"},
    {"net.channel_ms", "ms"},
    {"net.messages", "count"},
    {"net.rounds", "count"},
    {"net.link_s", "s"},
    {"core.candidates_bytes", "bytes"},
    {"core.verification_bytes", "bytes"},
    {"core.continuation_bytes", "bytes"},
    {"core.delta_bytes", "bytes"},
    {"core.files_sessioned", "count"},
    {"core.fallbacks", "count"},
    {"reconcile.manifest_bytes", "bytes"},
    {"reconcile.files_adopted", "count"},
    {"compress.literals_bytes", "bytes"},
    {"compress.files_bundled", "count"},
    {"store.apply_ms", "ms"},
    {"store.files_examined", "count"},
    {"store.files_committed", "count"},
    {"store.useful_ratio", "ratio"},
    {"netd.client_cpu_ms", "ms"},
    {"netd.client_wait_ms", "ms"},
    {"netd.server_cpu_ms", "ms"},
    {"netd.loop_cpu_ms", "ms"},
    {"netd.loop_busy_frac", "ratio"},
    {"netd.files_sessioned", "count"},
    {"netd.files_degraded", "count"},
    {"netd.backpressure_stalls", "count"},
    {"netd.connections_failed", "count"},
    {"hash.md5_mb_s", "MB/s"},
    {"index.scan_mb_s", "MB/s"},
    {"delta.encode_mb_s", "MB/s"},
    {"compress.encode_mb_s", "MB/s"},
    {"trace.overhead_ms", "ms"},
};

/// The outcome of one benchmark run: the metric values by name, the
/// sync tally, and the correctness verdict.
class Result {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Records one attempted sync and whether it was correct.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// A self-check or correctness gate: a false `ok` marks the run wrong
  /// and prints `what` to stderr.
  void Check(bool ok, const std::string& what);

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  /// Prints every kEndToEnd metric (trace = false) or every kPerLayer
  /// metric (trace = true), in table order: a table on stderr, then the
  /// JSON result line on stdout. A missing end-to-end metric fails the
  /// run; a missing per-layer metric is a layer the workload never
  /// enters and reads 0.
  void Print(bool trace);

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// One timed sync: its correctness, wall time and (where the workload
/// can attribute it) the process CPU it used.
struct SyncSample {
  bool ok = false;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// The samples of one closed-loop measurement.
struct LoopStats {
  std::vector<double> wall_ms;
  uint64_t cpu_ns = 0;
};

/// Closed loop with one client: calls `one()` back to back, at least
/// once, until `seconds` have elapsed; tallies every call in `result`.
template <typename One>
LoopStats ClosedLoop(double seconds, Result& result, One&& one) {
  LoopStats loop;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    SyncSample s = one();
    result.Attempt(s.ok);
    loop.wall_ms.push_back(s.wall_ns / 1e6);
    loop.cpu_ns += s.cpu_ns;
  } while (NowNs() < deadline);
  return loop;
}

/// The traced run's loop: one closed loop that alternates pairs of
/// untraced and traced syncs, so drift over the run touches both sides
/// of the tracing-overhead comparison alike (pairs keep mirror-apply's
/// two directions balanced on each side).
template <typename Plain, typename Traced>
void TracedLoop(double seconds, Result& result, Plain&& plain,
                Traced&& traced, LoopStats* untraced_out,
                LoopStats* traced_out) {
  size_t i = 0;
  ClosedLoop(seconds, result, [&] {
    const bool trace = (i++ / 2) % 2 == 1;
    SyncSample s = trace ? traced() : plain();
    (trace ? traced_out : untraced_out)->wall_ms.push_back(s.wall_ns / 1e6);
    return s;
  });
}

/// Sets the end-to-end metrics from a closed loop of `clients` clients
/// whose syncs each reconstruct `server_bytes` of the served version and
/// move `wire_bytes` over the wire. Throughput is clients / mean sync
/// wall, so the correctness check between syncs is not counted.
void SetEndToEnd(Result& result, const LoopStats& loop, int clients,
                 uint64_t server_bytes, double wire_bytes, double setup_s);

/// How --seed makes a workload's inputs. The repository's generators
/// run at their profiles' fixed default seeds, so every run syncs the
/// same tree shape: file sizes, edits, renames and compressibility.
/// --seed then relabels the byte values of every file through a
/// seed-keyed permutation of 0..255, applied alike to both versions, so
/// each seed has its own bytes (weak and strong hashes, collisions,
/// manifest digests) while the work a sync does stays put. Varying the
/// generator seed instead moves one release's wire bytes by 40% from
/// seed to seed, which no run-to-run bound could absorb.
class SeedRelabel {
 public:
  explicit SeedRelabel(uint64_t seed);
  fsx::Collection operator()(const fsx::Collection& files) const;

 private:
  uint8_t map_[256];
};

/// The tree mirror-apply and daemon-mirror share: ReleaseTreeProfile at
/// 20,000 files (~1% churn), at its default generator seed.
inline fsx::TreeChurnProfile MirrorTreeProfile() {
  return fsx::ReleaseTreeProfile(20000);
}

// The three workloads (see NOTES.md). Each returns 0 after filling
// `result`, or nonzero when it could not run at all.
int RunReleaseUpgrade(const Args& args, Result& result);
int RunMirrorApply(const Args& args, Result& result);
int RunDaemonMirror(const Args& args, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
