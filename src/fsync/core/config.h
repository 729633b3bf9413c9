// Protocol configuration. Mirrors the paper prototype's "parameter file":
// the set of techniques applied in each round and their hash widths can be
// varied independently, which is what the evaluation sweeps.
#ifndef FSYNC_CORE_CONFIG_H_
#define FSYNC_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "fsync/delta/delta.h"
#include "fsync/util/status.h"

namespace fsx {

/// Verification (group testing) strategy for one level.
struct VerifyConfig {
  /// Bits per verification hash (MD5-truncated).
  int verify_bits = 16;
  /// Candidates per first-batch group. 1 reproduces the paper's "trivial"
  /// per-candidate verification.
  int group_size = 8;
  /// Total verification batches per level (1..4). Batch k > 1 re-tests the
  /// members of failed groups in sub-groups (halving), salvaging the good
  /// candidates from a group spoiled by one bad apple.
  int max_batches = 2;
  /// First-batch group size for continuation-hash candidates, which carry
  /// less prior confidence than global-hash candidates.
  int continuation_group_size = 2;
  /// When true, group sizes grow as candidate confidence grows (candidates
  /// whose sibling or neighbour already confirmed join larger groups).
  bool adaptive_groups = true;
};

/// Graceful-degradation ladder for reconstruction failures (corrupted or
/// falsely verified map). Instead of jumping straight to a full transfer,
/// the client re-verifies the decoded candidate per region with strong
/// hashes and asks only for the literal bytes of the bad regions.
struct RepairConfig {
  /// Attempt region repair before a full transfer.
  bool enabled = true;
  /// Region granularity of the re-verification pass.
  uint32_t region_size = 4096;
  /// When more than this fraction of regions is bad, the server sends the
  /// whole file instead (region literals would cost more than a full
  /// compressed transfer).
  double max_bad_fraction = 0.5;
};

/// Full protocol configuration for one file synchronization.
struct SyncConfig {
  /// Initial block size; must be a power of two.
  uint32_t start_block_size = 2048;
  /// Global hashes stop once blocks reach this size.
  uint32_t min_block_size = 64;
  /// Continuation hashes keep extending confirmed matches down to this
  /// (smaller) block size; set equal to min_block_size to disable the
  /// deeper continuation recursion.
  uint32_t min_continuation_block = 16;

  /// Extra bits of a global candidate hash beyond log2(|F_old|).
  int global_extra_bits = 8;
  /// Bits of a continuation candidate hash (checked at one or two aligned
  /// positions only, so very few bits suffice).
  int continuation_bits = 6;
  /// Send one hash per sibling pair and let the client derive the other
  /// via the decomposable hash (Section 5.5).
  bool use_decomposable = true;
  /// Use continuation hashes at all (Section 5.4 phase A).
  bool use_continuation = true;
  /// Two-phase rounds (Section 5.4): send continuation hashes first and,
  /// one sub-roundtrip later, omit the global hashes of blocks whose
  /// sibling confirmed a continuation match (such a block is unlikely to
  /// match anywhere: a continuing match would have been found at the
  /// parent level, and the sibling's match usually spills into it).
  /// Costs one extra roundtrip per round.
  bool continuation_first = false;
  /// Local-hash radius (Section 5.4): a continuation hash is also checked
  /// at positions within +/- radius of the predicted extension position.
  /// 0 reproduces pure continuation hashes; nonzero values need wider
  /// continuation_bits to keep the false-positive rate.
  int local_radius = 0;

  VerifyConfig verify;

  /// Per-round overrides (paper Section 5.6: "a simple parameter file is
  /// used to specify all the options and techniques that should be used
  /// in each round"). Entry i overrides round i's knobs; -1 inherits the
  /// session-wide value above. Rounds past the end inherit everything.
  struct RoundOverride {
    int continuation_bits = -1;
    int verify_bits = -1;
    int group_size = -1;
    int max_batches = -1;
  };
  std::vector<RoundOverride> round_overrides;

  /// Delta codec for phase 2.
  DeltaCodec delta_codec = DeltaCodec::kZd;

  /// Failure-path behaviour (never enters the map-phase wire layout, so it
  /// is excluded from ConfigWireDigest and may differ across a resume).
  RepairConfig repair;

  /// Hard cap on protocol roundtrips (0 = unlimited). When the cap is
  /// reached the protocol jumps straight to the delta phase with whatever
  /// map has been built (the paper's restricted-roundtrip mode).
  int max_roundtrips = 0;

  /// Worker threads for the client's candidate scans, for the
  /// collection drivers' manifest hashing, and for per-file fan-out in
  /// collection synchronization (1 = serial). Pure execution
  /// knob: it never enters any wire message, and every value produces
  /// bit-identical traffic and results (see docs/architecture.md,
  /// "Determinism contract"). Hence it is deliberately NOT part of the
  /// hash-cast wire config either.
  int num_threads = 1;
};

/// Effective continuation-hash width for round `round` (applies any
/// per-round override). Both endpoints must use these accessors so their
/// wire layouts agree.
int EffectiveContinuationBits(const SyncConfig& config, int round);

/// Effective verification parameters for round `round`.
VerifyConfig EffectiveVerify(const SyncConfig& config, int round);

/// InvalidArgument unless the block sizes and the verification settings
/// describe a protocol that terminates: a nonzero power-of-two
/// start_block_size, nonzero min_block_size, min_continuation_block in
/// [1, min_block_size], verify_bits in [1, 64], max_batches >= 1. Every
/// entry point that runs the session protocol checks it first.
Status ValidateSyncConfig(const SyncConfig& config);

}  // namespace fsx

#endif  // FSYNC_CORE_CONFIG_H_
