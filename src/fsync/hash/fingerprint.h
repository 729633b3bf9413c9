// Whole-file fingerprints. Each synchronization exchanges one strong 16-byte
// fingerprint per file up front; it detects unchanged files (skip) and, at
// the end, the improbable failure of all block hashes (retry by full
// transfer), exactly as the paper's prototype does.
#ifndef FSYNC_HASH_FINGERPRINT_H_
#define FSYNC_HASH_FINGERPRINT_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsync/util/bytes.h"

namespace fsx {

/// 16-byte strong file fingerprint (MD5-based).
using Fingerprint = std::array<uint8_t, 16>;

/// Computes the fingerprint of `data`.
Fingerprint FileFingerprint(ByteSpan data);

/// FileFingerprint of every file of `files`, in map order, hashed four
/// files at a time (Md5Batch). `num_threads` > 1 gives each worker one
/// contiguous run of files; the result is identical at any thread count.
std::vector<Fingerprint> FileFingerprints(
    const std::map<std::string, Bytes>& files, int num_threads = 1);

}  // namespace fsx

#endif  // FSYNC_HASH_FINGERPRINT_H_
