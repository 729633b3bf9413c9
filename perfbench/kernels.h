// Kernel replays for the traced run: each layer's public entry point
// called directly on the workload's own bytes, so a per-layer speed-up
// shows as MB/s even where the end-to-end sync hides it.
#ifndef PERFBENCH_KERNELS_H_
#define PERFBENCH_KERNELS_H_

#include "fsync/core/collection.h"
#include "harness.h"

namespace perfbench {

/// Replays FileFingerprint (every file of `new_version`), ScanForKeys and
/// zd DeltaEncode (every path whose content differs between the versions)
/// and Compress (every file of `new_version` that a sync must ship:
/// changed or new). Each kernel runs whole passes for about `budget_s`
/// seconds. Adds hash.md5_mb_s, index.scan_mb_s, delta.encode_mb_s and
/// compress.encode_mb_s to `result`, and checks each kernel's output.
void ReplayKernels(const fsx::Collection& old_version,
                   const fsx::Collection& new_version, double budget_s,
                   Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_KERNELS_H_
