#include "fsync/hash/fingerprint.h"

#include <algorithm>

#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"
#include "fsync/par/thread_pool.h"

namespace fsx {

Fingerprint FileFingerprint(ByteSpan data) { return Md5::Hash(data); }

std::vector<Fingerprint> FileFingerprints(
    const std::map<std::string, Bytes>& files, int num_threads) {
  std::vector<ByteSpan> spans;
  spans.reserve(files.size());
  for (const auto& kv : files) {
    spans.push_back(kv.second);
  }
  std::vector<Fingerprint> out(spans.size());
  const size_t chunks = static_cast<size_t>(std::max(num_threads, 1));
  par::ParallelFor(num_threads, chunks, [&](size_t c) {
    const size_t lo = spans.size() * c / chunks;
    const size_t hi = spans.size() * (c + 1) / chunks;
    Md5Batch(spans.data() + lo, hi - lo, out.data() + lo);
  });
  return out;
}

}  // namespace fsx
