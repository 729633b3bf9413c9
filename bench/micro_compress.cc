// Microbenchmarks of the compression substrate: the stream codec and the
// two delta codecs (throughput and, via labels, compression ratio).
#include <benchmark/benchmark.h>

#include <vector>

#include "fsync/compress/codec.h"
#include "fsync/core/endpoint.h"
#include "fsync/delta/bsdiff.h"
#include "fsync/delta/vcdiff.h"
#include "fsync/delta/zd.h"
#include "fsync/util/random.h"
#include "fsync/workload/edits.h"
#include "fsync/workload/text_synth.h"

namespace fsx {
namespace {

Bytes MakeText(size_t n) {
  Rng rng(7);
  return SynthSourceFile(rng, n);
}

void BM_Compress(benchmark::State& state) {
  Bytes data = MakeText(state.range(0));
  size_t out_size = 0;
  for (auto _ : state) {
    Bytes packed = Compress(data);
    out_size = packed.size();
    benchmark::DoNotOptimize(packed);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
  state.counters["ratio"] =
      static_cast<double>(data.size()) / static_cast<double>(out_size);
}
BENCHMARK(BM_Compress)->Arg(16 << 10)->Arg(256 << 10);

void BM_Decompress(benchmark::State& state) {
  Bytes data = MakeText(state.range(0));
  Bytes packed = Compress(data);
  for (auto _ : state) {
    auto out = Decompress(packed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Decompress)->Arg(16 << 10)->Arg(256 << 10);

struct DeltaInput {
  Bytes reference;
  Bytes target;
};

DeltaInput MakeDeltaInput(size_t n) {
  Rng rng(9);
  DeltaInput d;
  d.reference = SynthSourceFile(rng, n);
  EditProfile ep;
  ep.num_edits = 10;
  d.target = ApplyEdits(d.reference, ep, rng);
  return d;
}

void BM_ZdEncode(benchmark::State& state) {
  DeltaInput d = MakeDeltaInput(state.range(0));
  size_t out_size = 0;
  for (auto _ : state) {
    auto delta = ZdEncode(d.reference, d.target);
    out_size = delta->size();
    benchmark::DoNotOptimize(delta);
  }
  state.SetBytesProcessed(state.iterations() * d.target.size());
  state.counters["delta_bytes"] = static_cast<double>(out_size);
}
BENCHMARK(BM_ZdEncode)->Arg(64 << 10)->Arg(512 << 10);

// The server's encode at the end of a session: the reference a real
// ledger confirmed, and the known runs that place it in the target.
struct SessionDelta {
  Bytes reference;
  Bytes target;
  std::vector<KnownRun> runs;
};

SessionDelta MakeSessionDelta(size_t n) {
  DeltaInput d = MakeDeltaInput(n);
  SyncConfig config;
  SyncClientEndpoint client(d.reference, config);
  SyncServerEndpoint server(d.target, config);
  StatusOr<Bytes> msg = server.OnRequest(client.MakeRequest());
  while (msg.ok()) {
    auto reply = client.OnServerMessage(*msg);
    if (!reply.ok() || !reply->has_value()) {
      break;
    }
    msg = server.OnClientMessage(**reply);
  }
  SessionDelta s;
  s.reference = server.DeltaReference(&s.runs);
  s.target = std::move(d.target);
  return s;
}

// Arg 1: 0 parses the whole target, 1 is guided by the ledger's runs.
void BM_ZdEncodeSession(benchmark::State& state) {
  SessionDelta s = MakeSessionDelta(state.range(0));
  std::span<const KnownRun> runs;
  if (state.range(1) != 0) {
    runs = s.runs;
  }
  size_t out_size = 0;
  for (auto _ : state) {
    auto delta = ZdEncode(s.reference, s.target, runs);
    out_size = delta->size();
    benchmark::DoNotOptimize(delta);
  }
  state.SetBytesProcessed(state.iterations() * s.target.size());
  state.counters["delta_bytes"] = static_cast<double>(out_size);
  state.counters["runs"] = static_cast<double>(s.runs.size());
}
BENCHMARK(BM_ZdEncodeSession)
    ->Args({64 << 10, 0})
    ->Args({64 << 10, 1})
    ->Args({512 << 10, 0})
    ->Args({512 << 10, 1});

void BM_ZdDecode(benchmark::State& state) {
  DeltaInput d = MakeDeltaInput(state.range(0));
  Bytes delta = std::move(ZdEncode(d.reference, d.target)).value();
  for (auto _ : state) {
    auto out = ZdDecode(d.reference, delta);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * d.target.size());
}
BENCHMARK(BM_ZdDecode)->Arg(64 << 10)->Arg(512 << 10);

void BM_VcdiffEncode(benchmark::State& state) {
  DeltaInput d = MakeDeltaInput(state.range(0));
  size_t out_size = 0;
  for (auto _ : state) {
    auto delta = VcdiffEncode(d.reference, d.target);
    out_size = delta->size();
    benchmark::DoNotOptimize(delta);
  }
  state.SetBytesProcessed(state.iterations() * d.target.size());
  state.counters["delta_bytes"] = static_cast<double>(out_size);
}
BENCHMARK(BM_VcdiffEncode)->Arg(64 << 10);

void BM_BsdiffEncode(benchmark::State& state) {
  DeltaInput d = MakeDeltaInput(state.range(0));
  size_t out_size = 0;
  for (auto _ : state) {
    auto delta = BsdiffEncode(d.reference, d.target);
    out_size = delta->size();
    benchmark::DoNotOptimize(delta);
  }
  state.SetBytesProcessed(state.iterations() * d.target.size());
  state.counters["delta_bytes"] = static_cast<double>(out_size);
}
BENCHMARK(BM_BsdiffEncode)->Arg(64 << 10);

}  // namespace
}  // namespace fsx

BENCHMARK_MAIN();
