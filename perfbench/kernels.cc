#include "kernels.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include "fsync/compress/codec.h"
#include "fsync/delta/delta.h"
#include "fsync/hash/fingerprint.h"
#include "fsync/index/scan.h"

namespace perfbench {
namespace {

// Runs `pass` (which returns the bytes it processed) until `budget_s`
// has elapsed, at least once; returns MB (10^6 bytes) per second.
double Rate(double budget_s, const std::function<uint64_t()>& pass) {
  uint64_t bytes = 0;
  uint64_t start = NowNs();
  uint64_t elapsed = 0;
  do {
    bytes += pass();
    elapsed = NowNs() - start;
  } while (elapsed < budget_s * 1e9);
  return static_cast<double>(bytes) * 1e3 / static_cast<double>(elapsed);
}

// Block sizes the scan replay sweeps: the session's recursion visits
// each level from the start block down to the minimum.
constexpr uint64_t kScanBlockSizes[] = {2048, 256, 64};

int WeakBits(uint64_t haystack_size) {
  return std::min(32, static_cast<int>(std::bit_width(haystack_size)) + 8);
}

}  // namespace

void ReplayKernels(const fsx::Collection& old_version,
                   const fsx::Collection& new_version, double budget_s,
                   Result& result) {
  std::vector<std::pair<const fsx::Bytes*, const fsx::Bytes*>> changed;
  std::vector<const fsx::Bytes*> shipped;
  for (const auto& [path, data] : new_version) {
    auto it = old_version.find(path);
    if (it == old_version.end()) {
      shipped.push_back(&data);
    } else if (it->second != data) {
      shipped.push_back(&data);
      changed.emplace_back(&it->second, &data);
    }
  }
  result.Check(!changed.empty(), "kernel replay: no changed files");

  // Strong hash: the manifest build and the apply's re-verify read every
  // file through FileFingerprint.
  std::vector<fsx::Fingerprint> first;
  double md5 = Rate(budget_s, [&] {
    uint64_t bytes = 0;
    std::vector<fsx::Fingerprint> prints;
    prints.reserve(new_version.size());
    for (const auto& [path, data] : new_version) {
      prints.push_back(fsx::FileFingerprint(data));
      bytes += data.size();
    }
    if (first.empty()) {
      first = std::move(prints);
    } else {
      result.Check(prints == first, "md5 replay: fingerprints not stable");
    }
    return bytes;
  });

  // Rolling scan: keys of the new version's aligned blocks searched in
  // the old version, weak keys only (as the session's candidate scan).
  std::vector<uint32_t> keys;
  std::vector<uint64_t> pos;
  bool scan_checked = false;
  double scan = Rate(budget_s, [&] {
    uint64_t bytes = 0;
    for (const auto& [old_data, new_data] : changed) {
      for (uint64_t size : kScanBlockSizes) {
        if (old_data->size() < size || new_data->size() < size) continue;
        int bits = WeakBits(old_data->size());
        keys.clear();
        for (uint64_t off = 0; off + size <= new_data->size(); off += size) {
          keys.push_back(fsx::AdlerScanHash::BlockKey(
              fsx::ByteSpan(*new_data).subspan(off, size), bits));
        }
        fsx::ScanForKeys(
            *old_data, size, bits, keys, [](size_t, uint64_t) { return true; },
            pos);
        bytes += old_data->size();
        if (!scan_checked) {
          for (size_t i = 0; i < keys.size(); ++i) {
            if (pos[i] == fsx::kScanNoMatch) continue;
            result.Check(fsx::AdlerScanHash::BlockKey(
                             fsx::ByteSpan(*old_data).subspan(pos[i], size),
                             bits) == keys[i],
                         "scan replay: match with a different key");
          }
        }
      }
    }
    scan_checked = true;
    return bytes;
  });

  bool delta_checked = false;
  double delta = Rate(budget_s, [&] {
    uint64_t bytes = 0;
    for (const auto& [old_data, new_data] : changed) {
      auto encoded = fsx::DeltaEncode(fsx::DeltaCodec::kZd, *old_data,
                                      *new_data);
      result.Check(encoded.ok(), "delta replay: encode failed");
      if (!encoded.ok()) return uint64_t{1};
      if (!delta_checked) {
        auto decoded =
            fsx::DeltaDecode(fsx::DeltaCodec::kZd, *old_data, *encoded);
        result.Check(decoded.ok() && *decoded == *new_data,
                     "delta replay: round trip differs");
      }
      bytes += new_data->size();
    }
    delta_checked = true;
    return bytes;
  });

  bool compress_checked = false;
  double compress = Rate(budget_s, [&] {
    uint64_t bytes = 0;
    for (const fsx::Bytes* data : shipped) {
      fsx::Bytes packed = fsx::Compress(*data);
      if (!compress_checked) {
        auto unpacked = fsx::Decompress(packed);
        result.Check(unpacked.ok() && *unpacked == *data,
                     "compress replay: round trip differs");
      }
      bytes += data->size();
    }
    compress_checked = true;
    return bytes;
  });

  result.Set("hash.md5_mb_s", md5);
  result.Set("index.scan_mb_s", scan);
  result.Set("delta.encode_mb_s", delta);
  result.Set("compress.encode_mb_s", compress);
}

}  // namespace perfbench
