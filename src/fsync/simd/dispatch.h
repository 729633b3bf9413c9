// Runtime CPU-feature detection and kernel dispatch for the byte-touching
// hot paths (CRC32C framing, rolling scans, strong-hash verification).
//
// Tiers and the kernels they select:
//   scalar   — slice-by-4 CRC32C; 4-lane batched MD5 (hash/md5_batch.h);
//   sse42    — SSE4.2 CRC32C; 4-lane batched MD5;
//   avx512   — SSE4.2 CRC32C; 16-lane AVX-512 batched MD5 (needs AVX-512F
//              and AVX-512VL, and an OS that saves ZMM state);
//   armv8crc — ARMv8 CRC32C; 4-lane batched MD5.
// So FSX_FORCE_SCALAR pins the 4-lane MD5 kernel and the portable CRC.
// Kernels for a tier are compiled with function-level target attributes,
// never global -m flags, so one binary runs on every x86-64 host.
//
// The contract is strict: a dispatch tier is a pure execution knob. Every
// kernel behind a dispatched entry point computes bit-identical results to
// the portable fallback, so wire output never depends on the host CPU —
// the same determinism contract `num_threads` obeys (docs/architecture.md,
// "Determinism contract"), pinned by tests/dispatch_conformance_test.cc.
//
// Resolution order for the active tier:
//   1. ForceTier(t)            — programmatic override (tests, benches);
//   2. FSX_FORCE_SCALAR=1      — environment override pinning the portable
//                                kernels (CI runs the suite once under it);
//   3. best tier the CPU supports (AVX-512, else SSE4.2, on x86-64;
//      CRC32 on ARMv8);
//   4. portable scalar code.
#ifndef FSYNC_SIMD_DISPATCH_H_
#define FSYNC_SIMD_DISPATCH_H_

#include <optional>
#include <string>
#include <vector>

namespace fsx::simd {

/// Kernel families, ordered by preference (higher = faster when present).
enum class DispatchTier {
  kScalar = 0,   // portable C++ (slice-by-4 CRC, scalar loops)
  kSse42 = 1,    // x86-64 SSE4.2 _mm_crc32_u64
  kArmv8Crc = 2, // AArch64 __crc32cd
  kAvx512 = 3,   // x86-64 AVX-512F/VL 16-lane MD5, plus the SSE4.2 CRC32C
};

/// What the host CPU advertises (detected once, cached).
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  bool clmul = false;     // PCLMULQDQ (x86)
  bool armv8_crc = false; // HWCAP CRC32 (AArch64)
  // AVX-512 Foundation / Vector Length. Set only when CPUID advertises
  // them *and* XCR0 shows the OS saves the opmask and ZMM registers.
  bool avx512f = false;
  bool avx512vl = false;
};

/// Cached CPUID / getauxval probe of the host.
const CpuFeatures& DetectCpuFeatures();

/// The tier dispatched entry points use right now (see resolution order
/// above). Cheap: one relaxed atomic load after first resolution.
DispatchTier ActiveTier();

/// Stable lower-case name for bench JSON / metrics ("scalar", "sse42",
/// "armv8crc", "avx512").
const char* TierName(DispatchTier tier);

/// All tiers runnable on this host, scalar first. Tests iterate this to
/// run every kernel the hardware can execute.
std::vector<DispatchTier> AvailableTiers();

/// Overrides tier resolution (nullopt returns to env/auto resolution).
/// Forcing a tier the CPU cannot run is ignored (scalar excepted). Not
/// thread-safe against concurrent dispatched calls; call from test/bench
/// setup only.
void ForceTier(std::optional<DispatchTier> tier);

/// True when FSX_FORCE_SCALAR is set to a non-empty, non-"0" value.
bool ForceScalarFromEnv();

/// Human-readable one-line summary, e.g.
/// "avx512 (cpu: sse4.2 avx2 pclmul avx512f avx512vl; forced: none)".
std::string DescribeDispatch();

}  // namespace fsx::simd

#endif  // FSYNC_SIMD_DISPATCH_H_
