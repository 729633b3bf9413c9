#include "fsync/hash/fingerprint.h"

#include "fsync/hash/md5.h"
#include "fsync/hash/md5_batch.h"

namespace fsx {

Fingerprint FileFingerprint(ByteSpan data) { return Md5::Hash(data); }

std::vector<Fingerprint> FileFingerprints(
    const std::map<std::string, Bytes>& files) {
  std::vector<ByteSpan> spans;
  spans.reserve(files.size());
  for (const auto& kv : files) {
    spans.push_back(kv.second);
  }
  std::vector<Fingerprint> out(spans.size());
  Md5Batch(spans.data(), spans.size(), out.data());
  return out;
}

}  // namespace fsx
