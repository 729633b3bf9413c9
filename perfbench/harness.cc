#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdio>

#include "fsync/obs/json.h"
#include "fsync/util/random.h"

namespace perfbench {

namespace {
const uint64_t g_start_ns = NowNs();
}  // namespace

void Log(const char* format, ...) {
  std::fprintf(stderr, "[%7.2fs] ", (NowNs() - g_start_ns) / 1e9);
  va_list ap;
  va_start(ap, format);
  std::vfprintf(stderr, format, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

uint64_t CollectionBytes(const fsx::Collection& c) {
  uint64_t total = 0;
  for (const auto& [name, data] : c) total += data.size();
  return total;
}

void Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Result::Print(bool trace) {
  // Resolve every metric first: a missing or non-finite value changes
  // the verdict, and the verdict leads the line.
  std::vector<std::pair<const MetricSpec*, double>> rows;
  auto resolve = [&](const MetricSpec& spec) {
    auto it = values_.find(spec.name);
    Check(trace || it != values_.end(),
          std::string("metric not measured: ") + spec.name);
    double value = it == values_.end() ? 0.0 : it->second;
    Check(std::isfinite(value), std::string("metric not finite: ") + spec.name);
    rows.emplace_back(&spec, std::isfinite(value) ? value : 0.0);
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) resolve(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) resolve(spec);
  }

  std::fprintf(stderr, "%llu syncs attempted, %llu failed\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  for (const auto& [spec, value] : rows) {
    std::fprintf(stderr, "  %-26s %16.4f %s\n", spec->name, value, spec->unit);
  }

  fsx::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted_);
  w.Key("failed");
  w.Uint(failed_);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [spec, value] : rows) {
    w.Key(spec->name);
    w.BeginObject();
    w.Key("value");
    w.Double(value);
    w.Key("unit");
    w.String(spec->unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.Take().c_str());
  std::fflush(stdout);
}

void SetEndToEnd(Result& result, const LoopStats& loop, int clients,
                 uint64_t server_bytes, double wire_bytes, double setup_s) {
  const double n = static_cast<double>(loop.wall_ms.size());
  double total_ms = 0;
  for (double ms : loop.wall_ms) total_ms += ms;
  const double syncs_per_s = n == 0 ? 0.0 : clients * n * 1e3 / total_ms;
  result.Set("sync_p50_ms", Quantile(loop.wall_ms, 0.5));
  result.Set("sync_p95_ms", Quantile(loop.wall_ms, 0.95));
  result.Set("syncs_per_s", syncs_per_s);
  result.Set("sync_mb_s",
             syncs_per_s * static_cast<double>(server_bytes) / 1e6);
  result.Set("wire_bytes", wire_bytes);
  result.Set("cpu_ms_per_sync", n == 0 ? 0.0 : loop.cpu_ns / n / 1e6);
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("setup_s", setup_s);
}

SeedRelabel::SeedRelabel(uint64_t seed) {
  for (int i = 0; i < 256; ++i) map_[i] = static_cast<uint8_t>(i);
  fsx::Rng rng(seed);
  for (int i = 255; i > 0; --i) {
    std::swap(map_[i], map_[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
}

fsx::Collection SeedRelabel::operator()(const fsx::Collection& files) const {
  fsx::Collection out;
  for (const auto& [name, data] : files) {
    fsx::Bytes& mapped = out[name];
    mapped.resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) mapped[i] = map_[data[i]];
  }
  return out;
}

}  // namespace perfbench
