// Adaptive parameter selection (paper Section 7: "ideally, such a tool
// would be adaptive and choose the best set of parameters and number of
// roundtrips based on the characteristics of the data set and link").
// Chooses a SyncConfig from the file sizes and the link's latency and
// bandwidth.
#ifndef FSYNC_CORE_ADAPTIVE_H_
#define FSYNC_CORE_ADAPTIVE_H_

#include <cstdint>

#include "fsync/core/config.h"

namespace fsx {

/// Link characteristics the adaptive policy may weigh.
struct AdaptiveHints {
  /// Seconds of latency per protocol roundtrip; high-latency links get a
  /// roundtrip-capped configuration.
  double roundtrip_latency_sec = 0.1;
  /// Bytes/sec downstream; slow links justify more rounds to save bytes.
  double bandwidth_bytes_per_sec = 128 * 1024;
  /// Bytes/sec upstream (paper Section 7: "lower upload speed"). When the
  /// uplink is much slower than the downlink, client->server bytes
  /// (bitmaps, verification hashes) dominate transfer time, so the policy
  /// buys fewer, larger verification groups at the cost of a few extra
  /// server->client map bits. 0 = symmetric.
  double upstream_bytes_per_sec = 0;
};

/// Picks a configuration from the two file sizes and link hints.
SyncConfig ChooseConfig(uint64_t old_size, uint64_t new_size,
                        const AdaptiveHints& hints = {});

}  // namespace fsx

#endif  // FSYNC_CORE_ADAPTIVE_H_
