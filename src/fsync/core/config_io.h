// Text serialization of SyncConfig: the concrete "parameter file" the
// paper's prototype is driven by. Format: `key = value` lines, `#`
// comments, and `[round N]` sections holding per-round overrides.
//
//   start_block_size = 2048
//   min_block_size = 64
//   use_continuation = true
//   [round 0]
//   verify_bits = 24        # be strict on the big first-level blocks
//   [round 5]
//   group_size = 16         # confidence is high by now
#ifndef FSYNC_CORE_CONFIG_IO_H_
#define FSYNC_CORE_CONFIG_IO_H_

#include <string>

#include "fsync/core/config.h"
#include "fsync/util/status.h"

namespace fsx {

/// Parses a parameter file. Unknown keys are errors (typo safety), and
/// so is a config ValidateSyncConfig rejects.
StatusOr<SyncConfig> ParseSyncConfig(const std::string& text);

/// Writes `config` in the same format (round-trips through Parse).
std::string SerializeSyncConfig(const SyncConfig& config);

}  // namespace fsx

#endif  // FSYNC_CORE_CONFIG_IO_H_
