#include "fsync/core/adaptive.h"

#include <algorithm>
#include <bit>

namespace fsx {

SyncConfig ChooseConfig(uint64_t old_size, uint64_t new_size,
                        const AdaptiveHints& hints) {
  SyncConfig config;
  uint64_t size = std::max(old_size, new_size);

  // Start block size: about 1/64 of the file, clamped to [256, 8192].
  uint64_t start = std::bit_ceil(std::clamp<uint64_t>(size / 64, 256, 8192));
  config.start_block_size = static_cast<uint32_t>(start);

  // Small files cannot amortize many rounds; stop the recursion earlier.
  if (size < 16 * 1024) {
    config.min_block_size = 32;
    config.min_continuation_block = 8;
  } else {
    config.min_block_size = 64;
    config.min_continuation_block = 16;
  }

  // High latency-bandwidth product: cap the roundtrips (paper Section 7's
  // restricted mode); each saved roundtrip is worth latency * bandwidth
  // bytes, so cap when that dwarfs the expected map savings.
  double rt_cost_bytes =
      hints.roundtrip_latency_sec * hints.bandwidth_bytes_per_sec;
  if (rt_cost_bytes > static_cast<double>(size)) {
    config.max_roundtrips = 2;
  } else if (rt_cost_bytes > static_cast<double>(size) / 8) {
    config.max_roundtrips = 6;
  }

  // Asymmetric links: every client->server byte costs down/up times more
  // than a downstream byte, so trade verification precision (uplink) for
  // a few extra candidate-hash bits (downlink).
  if (hints.upstream_bytes_per_sec > 0 &&
      hints.upstream_bytes_per_sec * 4 <= hints.bandwidth_bytes_per_sec) {
    config.verify.group_size = 16;
    config.verify.continuation_group_size = 4;
    config.verify.max_batches = 2;
    config.global_extra_bits += 2;  // fewer false candidates to report
  }
  return config;
}

}  // namespace fsx
