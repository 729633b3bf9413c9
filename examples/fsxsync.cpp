// fsxsync: synchronize a destination directory tree to match a source
// tree using the multi-round protocol, and report what the transfer
// would have cost over a network (both endpoints run in-process; the
// byte accounting is exact, the link is simulated). The default method,
// fsx, runs SyncCollectionTree, the same tree flow as serve/connect: a
// manifest walk finds the changed files, so an unchanged tree costs one
// root-digest exchange; renamed content is adopted locally; files up to
// 4 KiB ship in one compressed bundle; the rest run per-file sessions
// that share their roundtrips.
//
//   fsxsync <source-dir> <dest-dir> [--method fsx|rsync|cdc|multiround]
//           [--dry-run] [--keep-extra] [--trace]
//           [--metrics-json[=path]] [--cache-bytes=N]
//           [--fault-drop=P] [--fault-corrupt=P] [--retries=N]
//           [--recover] [--verify-after-apply]
//   fsxsync verify <dir>      # check a tree against its manifest
//   fsxsync recover <dir>     # resolve a crashed apply's journal
//   fsxsync serve <dir> [--port=N] [--unix=path] [--config <file>]
//           [--cache-bytes=N] [--max-conns=N]
//   fsxsync connect <host:port> <dest-dir> [--unix=path]
//           [--checkpoint-dir=path] [--keep-extra]
//   fsxsync demo
//   fsxsync --features        # CPU features + active dispatch tier
//
// serve/connect swap the simulated link for the real thing: `serve`
// runs the multi-client epoll daemon (fsync/netd/) over the directory
// tree, `connect` synchronizes a destination directory from it. SIGTERM
// or SIGINT on the server triggers a graceful drain: in-flight sessions
// finish, new ones are refused, the process exits once the last client
// completes. `connect --checkpoint-dir` persists per-file session
// checkpoints so a killed client resumes where it left off.
//
// --features reports what the runtime kernel dispatch (fsync/simd/)
// probed on this host and which tier the hot paths will use; the same
// information lands under "dispatch" in --metrics-json. Tiers are pure
// execution knobs — wire bytes never depend on them (FSX_FORCE_SCALAR=1
// pins the portable kernels for A/B comparison).
//
// --cache-bytes=N (fsx method only) runs the server side through the
// content-addressed signature/delta cache (docs/caching.md) with an
// N-byte LRU budget (N=0: unbounded). One CLI run sees little benefit —
// the cache pays off when a long-lived server answers many clients — but
// the flag exercises the exact production code path, never changes the
// wire bytes, and surfaces the cache counters under "cache" in
// --metrics-json.
//
// Every apply, the local sync and `connect` alike, goes through the
// crash-safe journaled commit path (store/apply.h): each changed file
// lands via fsync-ordered temp+rename guarded by a write-ahead intent
// journal, unchanged files are not rewritten, files modified
// concurrently are detected, skipped, and reported instead of
// clobbered, and a crash at any point is repaired by `fsxsync recover
// <dir>` (or the next run) to a state where each file is bit-exactly
// old or new. --recover resolves any leftover journal in <dest-dir>
// before syncing. --verify-after-apply re-checks the destination
// against its freshly written manifest before declaring success.
//
// Exit codes, shared by the local sync and `connect`: 0 sync applied
// cleanly; 1 failure; 2 usage error; 3 applied cleanly after recovering
// an interrupted run; 4 applied, but some concurrently modified files
// were skipped (listed on stderr), or a draining server cut `connect`
// short; 5 the destination disk filled up (RESOURCE_EXHAUSTED) — the
// apply aborted and rolled back, re-run after freeing space.
// FSX_CRASH_AT=<n> arms a deterministic crash at the n-th durability
// boundary (kill-point sweeps from the CLI; see docs/testing.md).
// FSX_DISK_FAULT=<spec> arms deterministic disk-fault injection on the
// store's vfs seam (e.g. "enospc-after=4096" or "fsync-fail"; see
// store/vfs_fault.h for the grammar and docs/testing.md for the sweep).
//
// --trace streams one line per wire message / protocol round / session
// to stderr as it happens; --metrics-json emits the per-phase byte
// attribution and aggregate metrics as JSON (to stdout, or to the given
// path). Both are host-side observers: they never change what goes over
// the (simulated) wire.
//
// --fault-drop / --fault-corrupt (fsx method only) run the sync over the
// reliable transport with the given per-message Bernoulli loss /
// corruption probability on the simulated link; --retries bounds the
// retransmit attempts before the session fails with UNAVAILABLE. The
// fault seed honors FSX_SEED, and the retransmit counters land in
// --metrics-json under "transport".
//
// Files present only in <dest-dir> are deleted (mirror semantics) unless
// --keep-extra is given. A manifest is written to the destination so a
// later `fsxsync verify` can spot local modifications cheaply.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include <fstream>

#include "fsync/cache/sync_cache.h"
#include "fsync/core/adaptive.h"
#include "fsync/netd/client.h"
#include "fsync/netd/daemon.h"
#include "fsync/core/config_io.h"
#include "fsync/core/collection.h"
#include "fsync/obs/json.h"
#include "fsync/obs/sync_obs.h"
#include "fsync/simd/dispatch.h"
#include "fsync/store/apply.h"
#include "fsync/store/crashpoint.h"
#include "fsync/store/fsstore.h"
#include "fsync/store/vfs.h"
#include "fsync/store/vfs_fault.h"
#include "fsync/testing/faults.h"
#include "fsync/transport/reliable.h"
#include "fsync/util/random.h"
#include "fsync/workload/release.h"

namespace {

using fsx::Collection;

/// --trace sink: one stderr line per observed event, as it happens.
class StderrTraceSink : public fsx::obs::TraceSink {
 public:
  void OnEvent(const fsx::obs::TraceEvent& event) override {
    using fsx::obs::EventKind;
    switch (event.kind) {
      case EventKind::kMessage:
        std::fprintf(stderr,
                     "trace: %-14s msg   round=%-3u phase=%-12s %-4s "
                     "%llu bytes\n",
                     event.protocol, event.round, PhaseName(event.phase),
                     FlowName(event.dir),
                     static_cast<unsigned long long>(event.bytes));
        break;
      case EventKind::kRound:
        std::fprintf(stderr, "trace: %-14s round round=%-3u %llu ns\n",
                     event.protocol, event.round,
                     static_cast<unsigned long long>(event.wall_ns));
        break;
      case EventKind::kSession:
        std::fprintf(stderr,
                     "trace: %-14s end   %llu bytes total, %llu ns\n",
                     event.protocol,
                     static_cast<unsigned long long>(event.bytes),
                     static_cast<unsigned long long>(event.wall_ns));
        break;
    }
  }
};

/// `fsxsync --features`: what the dispatch layer probed on this host and
/// which kernel tier the hot paths will use (honours FSX_FORCE_SCALAR).
int PrintFeatures() {
  const fsx::simd::CpuFeatures& cpu = fsx::simd::DetectCpuFeatures();
  std::printf("dispatch:        %s\n",
              fsx::simd::DescribeDispatch().c_str());
  std::printf("active tier:     %s\n",
              fsx::simd::TierName(fsx::simd::ActiveTier()));
  std::printf("available tiers:");
  for (fsx::simd::DispatchTier t : fsx::simd::AvailableTiers()) {
    std::printf(" %s", fsx::simd::TierName(t));
  }
  std::printf("\n");
  std::printf("cpu:             sse4.2=%c avx2=%c pclmul=%c avx512f=%c "
              "avx512vl=%c armv8crc=%c\n",
              cpu.sse42 ? 'y' : 'n', cpu.avx2 ? 'y' : 'n',
              cpu.clmul ? 'y' : 'n', cpu.avx512f ? 'y' : 'n',
              cpu.avx512vl ? 'y' : 'n', cpu.armv8_crc ? 'y' : 'n');
  std::printf("forced scalar:   %s (FSX_FORCE_SCALAR)\n",
              fsx::simd::ForceScalarFromEnv() ? "yes" : "no");
  return 0;
}

/// --metrics-json output: phase attribution + aggregate instruments.
/// `transport` is non-null when the sync ran over the reliable transport.
int WriteMetricsJson(const fsx::obs::SyncObserver& observer,
                     const std::string& method, const std::string& path,
                     const fsx::transport::TransportCounters* transport,
                     const fsx::cache::SyncCache* cache) {
  fsx::obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("fsx-metrics-v1");
  w.Key("method");
  w.String(method);
  w.Key("bytes");
  w.BeginObject();
  w.Key("total");
  w.Uint(observer.total_bytes());
  w.Key("up");
  w.Uint(observer.dir_bytes(fsx::obs::Flow::kUp));
  w.Key("down");
  w.Uint(observer.dir_bytes(fsx::obs::Flow::kDown));
  w.Key("phases");
  fsx::obs::WritePhaseBytes(w, observer);
  w.EndObject();
  w.Key("rounds");
  w.Uint(observer.rounds());
  w.Key("wall_ns");
  w.Uint(observer.wall_ns());
  // Which kernel tier the hot paths ran on — an execution detail (wire
  // bytes are tier-independent), recorded so perf numbers are
  // attributable to the hardware that produced them.
  w.Key("dispatch");
  w.BeginObject();
  w.Key("tier");
  w.String(fsx::simd::TierName(fsx::simd::ActiveTier()));
  w.Key("forced_scalar");
  w.Bool(fsx::simd::ForceScalarFromEnv());
  w.EndObject();
  if (transport != nullptr) {
    w.Key("transport");
    w.BeginObject();
    w.Key("records_sent");
    w.Uint(transport->records_sent);
    w.Key("retransmits");
    w.Uint(transport->retransmits);
    w.Key("timeouts");
    w.Uint(transport->timeouts);
    w.Key("corrupt_dropped");
    w.Uint(transport->corrupt_dropped);
    w.Key("duplicate_dropped");
    w.Uint(transport->duplicate_dropped);
    w.Key("reorder_buffered");
    w.Uint(transport->reorder_buffered);
    w.Key("delivered");
    w.Uint(transport->delivered);
    w.EndObject();
  }
  if (cache != nullptr) {
    fsx::cache::CacheStats s = cache->Stats();
    w.Key("cache");
    w.BeginObject();
    w.Key("hits");
    w.Uint(s.hits);
    w.Key("misses");
    w.Uint(s.misses);
    w.Key("insertions");
    w.Uint(s.insertions);
    w.Key("evictions");
    w.Uint(s.evictions);
    w.Key("entries");
    w.Uint(s.entries);
    w.Key("bytes_used");
    w.Uint(s.bytes_used);
    w.Key("bytes_saved");
    w.Uint(s.bytes_saved);
    w.Key("cpu_saved_ns");
    w.Uint(s.cpu_saved_ns);
    w.Key("dedup_bytes_saved");
    w.Uint(s.dedup_bytes_saved);
    w.EndObject();
  }
  w.Key("events");
  w.BeginObject();
  for (int i = 0; i < fsx::obs::kNumEvents; ++i) {
    fsx::obs::Event e = static_cast<fsx::obs::Event>(i);
    w.Key(fsx::obs::EventName(e));
    w.Uint(observer.event_count(e));
  }
  w.EndObject();
  fsx::obs::MetricsRegistry registry;
  observer.FlushTo(registry, method);
  w.Key("metrics");
  fsx::obs::WriteMetrics(w, registry);
  w.EndObject();
  std::string doc = w.Take();
  if (path.empty()) {
    std::printf("%s\n", doc.c_str());
    return 0;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << doc << "\n";
  std::printf("metrics written to %s\n", path.c_str());
  return out.good() ? 0 : 1;
}

// SyncCollectionTree, with the figures PrintStats reads in the
// comparators' result shape.
fsx::StatusOr<fsx::CollectionSyncResult> SyncTree(
    const fsx::Collection& client, const fsx::Collection& server,
    const fsx::TreeSyncParams& params, fsx::SimulatedChannel& channel,
    fsx::obs::SyncObserver* obs) {
  FSYNC_ASSIGN_OR_RETURN(
      fsx::TreeSyncResult tree,
      fsx::SyncCollectionTree(client, server, params, channel, obs));
  fsx::CollectionSyncResult result;
  result.reconstructed = std::move(tree.reconstructed);
  result.stats = tree.stats;
  result.files_total = tree.files_total;
  result.files_unchanged = tree.files_unchanged;
  result.files_new = tree.files_new;
  return result;
}

void PrintStats(std::FILE* out, const char* method,
                const fsx::CollectionSyncResult& r, uint64_t tree_bytes) {
  std::fprintf(out, "method:        %s\n", method);
  std::fprintf(out, "files:         %llu total, %llu unchanged, %llu new\n",
               static_cast<unsigned long long>(r.files_total),
               static_cast<unsigned long long>(r.files_unchanged),
               static_cast<unsigned long long>(r.files_new));
  std::fprintf(out, "traffic:       %.1f KiB (%.2f%% of tree)\n",
               r.stats.total_bytes() / 1024.0,
               tree_bytes ? 100.0 * r.stats.total_bytes() / tree_bytes : 0.0);
  std::fprintf(out, "roundtrips:    %llu (batched across files)\n",
               static_cast<unsigned long long>(r.stats.roundtrips));
}

struct ObserveOptions {
  bool trace = false;
  bool metrics_json = false;
  std::string metrics_path;  // empty = stdout
};

struct FaultOptions {
  double drop = 0.0;     // per-message loss probability, both directions
  double corrupt = 0.0;  // per-message bit-flip probability
  int retries = 0;       // 0 = transport default
  bool any() const { return drop > 0 || corrupt > 0 || retries > 0; }
};

struct ApplyCliOptions {
  bool recover_first = false; // resolve leftover journals before syncing
  bool verify_after = false;  // re-verify dest against its manifest
};

struct CacheCliOptions {
  bool enabled = false;    // --cache-bytes given
  uint64_t max_bytes = 0;  // LRU budget; 0 = unbounded
};

// Exit-code taxonomy (documented in the header comment): conflicts beat
// "recovered", which beats clean.
constexpr int kExitClean = 0;
constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRecovered = 3;
constexpr int kExitConflicts = 4;
constexpr int kExitDiskFull = 5;

/// Exit code for a failed store operation: disk-full gets its own code
/// so wrappers can distinguish "free space and retry" from a real bug.
int ExitCodeFor(const fsx::Status& status) {
  return status.code() == fsx::StatusCode::kResourceExhausted
             ? kExitDiskFull
             : kExitFailed;
}

/// Prints a committed apply's summary (each conflict on stderr) and
/// returns the exit code the local sync and `connect` both end with.
int ReportApply(std::FILE* human, const fsx::store::ApplyReport& report,
                bool recovered_before_sync) {
  for (const std::string& name : report.conflicts) {
    std::fprintf(stderr, "conflict: %s changed during sync; skipped\n",
                 name.c_str());
  }
  std::fprintf(human,
               "destination updated (journaled: %llu written, "
               "%llu unchanged, %llu deleted, %zu conflicts)\n",
               static_cast<unsigned long long>(report.files_committed),
               static_cast<unsigned long long>(report.files_unchanged),
               static_cast<unsigned long long>(report.files_deleted),
               report.conflicts.size());
  if (!report.conflicts.empty()) {
    return kExitConflicts;
  }
  if (recovered_before_sync || report.recovered) {
    return kExitRecovered;
  }
  return kExitClean;
}

int RunSync(const std::string& src_dir, const std::string& dst_dir,
            const std::string& method, bool dry_run, bool keep_extra,
            const std::string& config_path = "",
            const ObserveOptions& observe = {},
            const FaultOptions& faults = {},
            const ApplyCliOptions& apply = {},
            const CacheCliOptions& cache_opts = {}) {
  bool recovered_before_sync = false;
  if (apply.recover_first) {
    auto rec = fsx::store::RecoverTree(dst_dir);
    if (!rec.ok()) {
      std::fprintf(stderr, "recover: %s\n", rec.status().ToString().c_str());
      return kExitFailed;
    }
    recovered_before_sync = rec->had_journal || rec->cleaned_temps > 0;
    if (recovered_before_sync) {
      std::fprintf(stderr,
                   "recover: resolved interrupted apply in %s "
                   "(%llu rolled back, %llu temps cleaned)\n",
                   dst_dir.c_str(),
                   static_cast<unsigned long long>(rec->rolled_back_files),
                   static_cast<unsigned long long>(rec->cleaned_temps));
    }
  }
  auto server_tree = fsx::LoadTree(src_dir);
  if (!server_tree.ok()) {
    std::fprintf(stderr, "source: %s\n",
                 server_tree.status().ToString().c_str());
    return 1;
  }
  auto client_tree = fsx::LoadTree(dst_dir);
  if (!client_tree.ok()) {
    std::fprintf(stderr, "dest: %s\n",
                 client_tree.status().ToString().c_str());
    return 1;
  }
  uint64_t tree_bytes = 0;
  for (const auto& [name, data] : *server_tree) {
    tree_bytes += data.size();
  }

  fsx::obs::SyncObserver observer;
  StderrTraceSink trace_sink;
  if (observe.trace) {
    observer.set_sink(&trace_sink);
  }
  fsx::obs::SyncObserver* obs =
      observe.trace || observe.metrics_json ? &observer : nullptr;

  if (faults.any() && method != "fsx") {
    std::fprintf(stderr,
                 "--fault-drop/--fault-corrupt/--retries need --method fsx\n");
    return 2;
  }
  if (cache_opts.enabled && method != "fsx") {
    std::fprintf(stderr, "--cache-bytes needs --method fsx\n");
    return kExitUsage;
  }

  fsx::StatusOr<fsx::CollectionSyncResult> result =
      fsx::Status::Internal("unset");
  std::optional<fsx::transport::TransportCounters> transport_counters;
  std::optional<fsx::cache::SyncCache> server_cache;
  if (cache_opts.enabled) {
    server_cache.emplace(cache_opts.max_bytes);
  }
  fsx::cache::SyncCache* cache =
      server_cache.has_value() ? &*server_cache : nullptr;
  if (method == "rsync") {
    result = SyncCollectionRsync(*client_tree, *server_tree,
                                 fsx::RsyncParams{}, obs);
  } else if (method == "cdc") {
    result = SyncCollectionCdc(*client_tree, *server_tree,
                               fsx::CdcSyncParams{}, obs);
  } else if (method == "multiround") {
    result = SyncCollectionMultiround(*client_tree, *server_tree,
                                      fsx::MultiroundParams{}, obs);
  } else if (method == "fsx") {
    fsx::SyncConfig config = fsx::ChooseConfig(32 * 1024, 32 * 1024);
    if (!config_path.empty()) {
      // The paper's "parameter file": full control over every round.
      std::ifstream in(config_path);
      if (!in) {
        std::fprintf(stderr, "cannot read config %s\n",
                     config_path.c_str());
        return 1;
      }
      std::string text{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
      auto parsed = fsx::ParseSyncConfig(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      config = *parsed;
    }
    const fsx::TreeSyncParams tree_params{.config = config, .cache = cache};
    fsx::SimulatedChannel channel;
    if (faults.any()) {
      // Lossy-link mode: arm the faults on the raw channel and run the
      // whole collection over the reliable record transport.
      fsx::FaultSchedule schedule;
      schedule.name = "cli";
      schedule.seed = fsx::SeedFromEnv(0xF5C11);
      for (int d = 0; d < 2; ++d) {
        schedule.drop[d] = faults.drop;
        schedule.corrupt[d] = faults.corrupt;
      }
      ArmSchedule(channel, schedule);
      fsx::transport::ReliableParams params;
      if (faults.retries > 0) {
        params.max_attempts = faults.retries;
      }
      fsx::transport::ReliableChannel reliable(channel, params);
      result = SyncTree(*client_tree, *server_tree, tree_params, reliable,
                        obs);
      transport_counters = reliable.counters();
      std::fprintf(stderr,
                   "transport: %llu records, %llu retransmits, "
                   "%llu timeouts\n",
                   static_cast<unsigned long long>(
                       transport_counters->records_sent),
                   static_cast<unsigned long long>(
                       transport_counters->retransmits),
                   static_cast<unsigned long long>(
                       transport_counters->timeouts));
    } else {
      result =
          SyncTree(*client_tree, *server_tree, tree_params, channel, obs);
    }
  } else {
    std::fprintf(stderr, "unknown method '%s' (fsx|rsync|cdc|multiround)\n",
                 method.c_str());
    return 2;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "sync failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // With --metrics-json to stdout, keep stdout machine-readable: the JSON
  // document is the only thing printed there; everything human goes to
  // stderr so `fsxsync ... --metrics-json | jq .` works.
  std::FILE* human =
      observe.metrics_json && observe.metrics_path.empty() ? stderr : stdout;
  PrintStats(human, method.c_str(), *result, tree_bytes);
  // Deferred until after the apply phase so journal/recovery/conflict
  // events show up in the emitted document.
  auto write_metrics = [&]() {
    // The vfs layer counts fsync failures and injected faults in
    // process-global atomics (it has no observer); fold them into the
    // event table so they land in the JSON document. Each return path
    // calls this lambda at most once, so the fold cannot double-count.
    const fsx::store::VfsCounters& vfs = fsx::store::GlobalVfsCounters();
    observer.AddEvent(fsx::obs::Event::kFsyncFailure,
                      vfs.fsync_failures.load());
    observer.AddEvent(fsx::obs::Event::kDiskFaultInjected,
                      vfs.faults_injected.load());
    return !observe.metrics_json ||
           WriteMetricsJson(observer, method, observe.metrics_path,
                            transport_counters.has_value()
                                ? &*transport_counters
                                : nullptr,
                            cache) == 0;
  };
  if (result->reconstructed != *server_tree) {
    std::fprintf(stderr, "internal error: reconstruction mismatch\n");
    return 1;
  }
  if (dry_run) {
    std::fprintf(human, "dry run: destination not modified\n");
    return write_metrics() ? kExitClean : kExitFailed;
  }

  // Journaled per-file commit, with the loaded dest tree as the
  // conflict baseline — anything that changed since the scan is skipped
  // and reported, not clobbered.
  fsx::store::ApplyOptions options;
  options.delete_extra = !keep_extra;
  auto report = fsx::store::ApplyTree(dst_dir, result->reconstructed,
                                      fsx::BuildManifest(*client_tree),
                                      options, obs);
  if (!report.ok()) {
    std::fprintf(stderr, "apply failed: %s\n",
                 report.status().ToString().c_str());
    (void)write_metrics();  // surface enospc_aborts/fsync_failures
    return ExitCodeFor(report.status());
  }
  const int rc = ReportApply(human, *report, recovered_before_sync);

  if (apply.verify_after) {
    auto dirty = fsx::VerifyTree(dst_dir);
    if (!dirty.ok()) {
      std::fprintf(stderr, "post-apply verify failed: %s\n",
                   dirty.status().ToString().c_str());
      return kExitFailed;
    }
    if (!dirty->empty()) {
      std::fprintf(stderr,
                   "post-apply verify: %zu file(s) differ from manifest\n",
                   dirty->size());
      return kExitFailed;
    }
    std::fprintf(human, "post-apply verify: clean\n");
  }

  if (!write_metrics()) {
    return kExitFailed;
  }
  return rc;
}

int Recover(const std::string& dir) {
  auto rec = fsx::store::RecoverTree(dir);
  if (!rec.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 rec.status().ToString().c_str());
    return kExitFailed;
  }
  if (!rec->had_journal && rec->cleaned_temps == 0) {
    std::printf("%s: clean (no interrupted apply)\n", dir.c_str());
    return kExitClean;
  }
  std::printf(
      "%s: recovered (%s journal, %llu file(s) rolled back, "
      "%llu temp(s) cleaned)\n",
      dir.c_str(),
      rec->had_journal ? (rec->was_committed ? "committed" : "uncommitted")
                       : "no",
      static_cast<unsigned long long>(rec->rolled_back_files),
      static_cast<unsigned long long>(rec->cleaned_temps));
  return kExitRecovered;
}

int Verify(const std::string& dir) {
  auto dirty = fsx::VerifyTree(dir);
  if (!dirty.ok()) {
    std::fprintf(stderr, "verify failed: %s\n",
                 dirty.status().ToString().c_str());
    return 1;
  }
  if (dirty->empty()) {
    std::printf("%s: clean (matches manifest)\n", dir.c_str());
    return 0;
  }
  std::printf("%s: %zu file(s) differ from the manifest:\n", dir.c_str(),
              dirty->size());
  for (const std::string& name : *dirty) {
    std::printf("  %s\n", name.c_str());
  }
  return 1;
}

int Demo() {
  // Self-contained demo: generate a release pair in temp dirs and sync.
  fsx::ReleaseProfile profile = fsx::GccLikeProfile();
  profile.num_files = 25;
  fsx::ReleasePair pair = fsx::MakeRelease(profile);
  std::filesystem::path base =
      std::filesystem::temp_directory_path() / "fsxsync_demo";
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
  std::string src = (base / "server").string();
  std::string dst = (base / "client").string();
  const fsx::Manifest empty;
  if (!fsx::store::ApplyTree(src, pair.new_release, empty).ok() ||
      !fsx::store::ApplyTree(dst, pair.old_release, empty).ok()) {
    std::fprintf(stderr, "cannot set up demo trees\n");
    return 1;
  }
  std::printf("demo trees under %s\n\n", base.string().c_str());
  int rc = RunSync(src, dst, "fsx", /*dry_run=*/false,
                   /*keep_extra=*/false);
  if (rc != 0) {
    return rc;
  }
  std::printf("\nverifying destination manifest...\n");
  return Verify(dst);
}

// `fsxsync serve`: the real multi-client daemon (fsync/netd/). SIGTERM
// and SIGINT trigger a graceful drain — in-flight sessions finish, new
// ones are refused, and the process exits once the last client is done
// (bounded by the daemon's drain deadline).
fsx::netd::SyncDaemon* g_serve_daemon = nullptr;

void ServeSignalHandler(int) {
  if (g_serve_daemon != nullptr) {
    g_serve_daemon->Drain();  // async-signal-safe: atomic + pipe write
  }
}

int Serve(int argc, char** argv) {
  std::string dir;
  fsx::netd::DaemonOptions options;
  std::string config_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      options.port = static_cast<uint16_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--unix=", 7) == 0) {
      options.unix_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--cache-bytes=", 14) == 0) {
      options.cache_bytes = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-conns=", 12) == 0) {
      options.max_connections =
          static_cast<size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else if (argv[i][0] != '-' && dir.empty()) {
      dir = argv[i];
    } else {
      std::fprintf(stderr, "serve: unknown flag %s\n", argv[i]);
      return kExitUsage;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: fsxsync serve <dir> [--port=N] [--unix=path] "
                 "[--config <file>] [--cache-bytes=N] [--max-conns=N]\n");
    return kExitUsage;
  }
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::fprintf(stderr, "cannot read config %s\n", config_path.c_str());
      return kExitFailed;
    }
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    auto parsed = fsx::ParseSyncConfig(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return kExitFailed;
    }
    options.config = *parsed;
  }
  auto tree = fsx::LoadTree(dir);
  if (!tree.ok()) {
    std::fprintf(stderr, "serve: %s\n", tree.status().ToString().c_str());
    return kExitFailed;
  }
  fsx::netd::SyncDaemon daemon(std::move(*tree), options);
  fsx::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve: %s\n", started.ToString().c_str());
    return kExitFailed;
  }
  g_serve_daemon = &daemon;
  std::signal(SIGTERM, ServeSignalHandler);
  std::signal(SIGINT, ServeSignalHandler);
  if (options.unix_path.empty()) {
    std::printf("serving %s on %s:%u\n", dir.c_str(), options.host.c_str(),
                static_cast<unsigned>(daemon.port()));
  } else {
    std::printf("serving %s on unix:%s\n", dir.c_str(),
                options.unix_path.c_str());
  }
  std::fflush(stdout);
  daemon.Join();  // returns when a signal-triggered drain completes
  g_serve_daemon = nullptr;
  fsx::netd::DaemonStats stats = daemon.stats();
  std::printf(
      "drained: %llu conns accepted, %llu sessions completed, "
      "%llu KB in / %llu KB out\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.sessions_completed),
      static_cast<unsigned long long>(stats.bytes_in / 1024),
      static_cast<unsigned long long>(stats.bytes_out / 1024));
  return kExitClean;
}

// `fsxsync connect`: synchronize <dest-dir> from a running daemon.
int Connect(int argc, char** argv) {
  std::string server;
  std::string dir;
  fsx::netd::ClientOptions opts;
  bool keep_extra = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--unix=", 7) == 0) {
      opts.unix_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      opts.checkpoint_dir = argv[i] + 17;
    } else if (std::strcmp(argv[i], "--keep-extra") == 0) {
      keep_extra = true;
    } else if (argv[i][0] != '-' && server.empty() &&
               opts.unix_path.empty()) {
      server = argv[i];
    } else if (argv[i][0] != '-' && dir.empty()) {
      dir = argv[i];
    } else {
      std::fprintf(stderr, "connect: unknown flag %s\n", argv[i]);
      return kExitUsage;
    }
  }
  if (!server.empty()) {
    const size_t colon = server.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "connect: server must be <host>:<port>\n");
      return kExitUsage;
    }
    opts.host = server.substr(0, colon);
    opts.port = static_cast<uint16_t>(std::atoi(server.c_str() + colon + 1));
  }
  if (dir.empty() || (server.empty() && opts.unix_path.empty())) {
    std::fprintf(stderr,
                 "usage: fsxsync connect <host:port> <dest-dir> "
                 "[--unix=path] [--checkpoint-dir=path] [--keep-extra]\n");
    return kExitUsage;
  }
  fsx::store::ApplyOptions apply;
  apply.delete_extra = !keep_extra;
  auto report = fsx::netd::ConnectTree(dir, opts, apply);
  if (!report.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 report.status().ToString().c_str());
    return ExitCodeFor(report.status());
  }
  const fsx::netd::ClientResult& result = report->client;
  std::printf(
      "synced %s: %llu files (%llu unchanged, %llu adopted, %llu small, "
      "%llu sessioned, %llu new, %llu resumed, %llu aborted)\n",
      dir.c_str(), static_cast<unsigned long long>(result.files_total),
      static_cast<unsigned long long>(result.files_unchanged),
      static_cast<unsigned long long>(result.files_adopted),
      static_cast<unsigned long long>(result.files_small),
      static_cast<unsigned long long>(result.files_sessioned),
      static_cast<unsigned long long>(result.files_new),
      static_cast<unsigned long long>(result.files_resumed),
      static_cast<unsigned long long>(result.files_aborted));
  const int rc = ReportApply(stdout, report->apply,
                             /*recovered_before_sync=*/false);
  if (result.files_aborted > 0) {
    // The aborted files kept their old bytes; a rerun finishes them.
    return result.server_draining ? kExitConflicts : kExitFailed;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Deterministic crash injection for the kill-point harness: honour
  // FSX_CRASH_AT=<n> so external sweeps can kill the process at the
  // n-th crash point (no-op unless the variable is set).
  fsx::store::ArmCrashFromEnv();
  // Deterministic disk-fault injection on the store's vfs seam: honour
  // FSX_DISK_FAULT=<spec> (e.g. "enospc-after=4096", "fail-op=7,
  // errno=eio", "fsync-fail,pattern=.manifest") so external sweeps can
  // exercise error paths without a special filesystem (no-op when unset).
  fsx::store::ArmDiskFaultFromEnv();
  if (argc >= 2 && (std::strcmp(argv[1], "--features") == 0 ||
                    std::strcmp(argv[1], "features") == 0)) {
    return PrintFeatures();
  }
  if (argc >= 2 && std::strcmp(argv[1], "demo") == 0) {
    return Demo();
  }
  if (argc >= 3 && std::strcmp(argv[1], "verify") == 0) {
    return Verify(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "recover") == 0) {
    return Recover(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return Serve(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "connect") == 0) {
    return Connect(argc, argv);
  }
  if (argc < 3) {
    std::fprintf(
        stderr,
        "usage: %s <source-dir> <dest-dir> [--method fsx|rsync|cdc|"
        "multiround] [--dry-run] [--keep-extra] [--trace] "
        "[--metrics-json[=path]] [--cache-bytes=N] [--fault-drop=P] "
        "[--fault-corrupt=P] [--retries=N] [--recover] "
        "[--verify-after-apply]\n"
        "       %s verify <dir>\n       %s recover <dir>\n"
        "       %s serve <dir> [--port=N] [--unix=path]\n"
        "       %s connect <host:port> <dest-dir>\n"
        "       %s demo\n       %s --features\n"
        "\n"
        "serve/connect run a real multi-client daemon over TCP or unix\n"
        "sockets (SIGTERM drains gracefully; see docs/architecture.md).\n"
        "Every apply, connect included, is journaled (store/apply.h).\n"
        "\n"
        "exit codes (the local sync and connect alike):\n"
        "  0  sync applied cleanly\n"
        "  1  failure (I/O, protocol, or post-apply verify mismatch)\n"
        "  2  usage error (bad flag or flag/method combination)\n"
        "  3  applied cleanly after recovering an interrupted apply\n"
        "  4  applied, but concurrently modified files were skipped\n"
        "     (each conflict listed on stderr), or a draining server\n"
        "     cut connect short\n"
        "  5  destination disk full (apply aborted and rolled back;\n"
        "     free space and re-run)\n"
        "  (FSX_CRASH_AT kill-point runs exit 42 at the armed boundary;\n"
        "   FSX_DISK_FAULT=<spec> arms deterministic disk-fault\n"
        "   injection, e.g. enospc-after=4096 or fsync-fail)\n",
        argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return kExitUsage;
  }
  std::string method = "fsx";
  std::string config_path;
  bool dry_run = false;
  bool keep_extra = false;
  ObserveOptions observe;
  FaultOptions faults;
  ApplyCliOptions apply;
  CacheCliOptions cache_opts;
  auto parse_prob = [](const char* text, double* out) {
    char* end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || v < 0.0 || v >= 1.0) {
      return false;
    }
    *out = v;
    return true;
  };
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      method = argv[++i];
    } else if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--keep-extra") == 0) {
      keep_extra = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      observe.trace = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      observe.metrics_json = true;
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      observe.metrics_json = true;
      observe.metrics_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--cache-bytes=", 14) == 0) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(argv[i] + 14, &end, 10);
      if (end == argv[i] + 14 || *end != '\0') {
        std::fprintf(stderr,
                     "--cache-bytes needs a byte count (0 = unbounded)\n");
        return kExitUsage;
      }
      cache_opts.enabled = true;
      cache_opts.max_bytes = v;
    } else if (std::strncmp(argv[i], "--fault-drop=", 13) == 0) {
      if (!parse_prob(argv[i] + 13, &faults.drop)) {
        std::fprintf(stderr, "--fault-drop needs a probability in [0,1)\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--fault-corrupt=", 16) == 0) {
      if (!parse_prob(argv[i] + 16, &faults.corrupt)) {
        std::fprintf(stderr,
                     "--fault-corrupt needs a probability in [0,1)\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      faults.retries = std::atoi(argv[i] + 10);
      if (faults.retries < 1) {
        std::fprintf(stderr, "--retries needs a positive count\n");
        return kExitUsage;
      }
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      apply.recover_first = true;
    } else if (std::strcmp(argv[i], "--verify-after-apply") == 0) {
      apply.verify_after = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return kExitUsage;
    }
  }
  return RunSync(argv[1], argv[2], method, dry_run, keep_extra,
                 config_path, observe, faults, apply, cache_opts);
}
