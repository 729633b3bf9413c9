#include "fsync/simd/dispatch.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace fsx::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
// True when the OS saves the AVX-512 register state across context
// switches: CPUID reports OSXSAVE, and XCR0 enables the SSE, AVX, opmask,
// ZMM_Hi256 and Hi16_ZMM components (bits 1, 2, 5, 6, 7). A CPU can
// advertise AVX-512 under an OS (or hypervisor) that leaves them off; the
// instructions then fault.
bool OsSavesZmmState() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_OSXSAVE) == 0) {
    return false;
  }
  uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr uint32_t kZmmState = 0xE6;
  return (xcr0_lo & kZmmState) == kZmmState;
}
#endif

CpuFeatures Probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.sse42 = __builtin_cpu_supports("sse4.2");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.clmul = __builtin_cpu_supports("pclmul");
  if (OsSavesZmmState()) {
    f.avx512f = __builtin_cpu_supports("avx512f");
    f.avx512vl = __builtin_cpu_supports("avx512vl");
  }
#elif defined(__aarch64__) && defined(__linux__)
  f.armv8_crc = (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#endif
  return f;
}

// The AVX-512 tier keeps the SSE4.2 CRC32C kernel, so it needs both.
bool Avx512TierRunnable(const CpuFeatures& f) {
  return f.sse42 && f.avx512f && f.avx512vl;
}

DispatchTier BestHardwareTier() {
  const CpuFeatures& f = DetectCpuFeatures();
  if (Avx512TierRunnable(f)) {
    return DispatchTier::kAvx512;
  }
  if (f.sse42) {
    return DispatchTier::kSse42;
  }
  if (f.armv8_crc) {
    return DispatchTier::kArmv8Crc;
  }
  return DispatchTier::kScalar;
}

// kUnresolved marks "not yet computed"; any other value is the cached
// DispatchTier. ForceTier writes the cache directly (or resets it).
constexpr int kUnresolved = -1;
std::atomic<int> g_active{kUnresolved};
std::atomic<bool> g_forced{false};

DispatchTier Resolve() {
  if (ForceScalarFromEnv()) {
    return DispatchTier::kScalar;
  }
  return BestHardwareTier();
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

DispatchTier ActiveTier() {
  int cached = g_active.load(std::memory_order_relaxed);
  if (cached == kUnresolved) {
    cached = static_cast<int>(Resolve());
    g_active.store(cached, std::memory_order_relaxed);
  }
  return static_cast<DispatchTier>(cached);
}

const char* TierName(DispatchTier tier) {
  switch (tier) {
    case DispatchTier::kScalar:
      return "scalar";
    case DispatchTier::kSse42:
      return "sse42";
    case DispatchTier::kArmv8Crc:
      return "armv8crc";
    case DispatchTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::vector<DispatchTier> AvailableTiers() {
  std::vector<DispatchTier> tiers = {DispatchTier::kScalar};
  const CpuFeatures& f = DetectCpuFeatures();
  if (f.sse42) {
    tiers.push_back(DispatchTier::kSse42);
  }
  if (f.armv8_crc) {
    tiers.push_back(DispatchTier::kArmv8Crc);
  }
  if (Avx512TierRunnable(f)) {
    tiers.push_back(DispatchTier::kAvx512);
  }
  return tiers;
}

void ForceTier(std::optional<DispatchTier> tier) {
  if (!tier.has_value()) {
    g_forced.store(false, std::memory_order_relaxed);
    g_active.store(kUnresolved, std::memory_order_relaxed);
    return;
  }
  DispatchTier want = *tier;
  if (want != DispatchTier::kScalar) {
    // Never force a kernel the host cannot execute.
    const CpuFeatures& f = DetectCpuFeatures();
    bool runnable = (want == DispatchTier::kSse42 && f.sse42) ||
                    (want == DispatchTier::kArmv8Crc && f.armv8_crc) ||
                    (want == DispatchTier::kAvx512 && Avx512TierRunnable(f));
    if (!runnable) {
      return;
    }
  }
  g_forced.store(true, std::memory_order_relaxed);
  g_active.store(static_cast<int>(want), std::memory_order_relaxed);
}

bool ForceScalarFromEnv() {
  const char* v = std::getenv("FSX_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

std::string DescribeDispatch() {
  const CpuFeatures& f = DetectCpuFeatures();
  std::string cpu;
  if (f.sse42) cpu += " sse4.2";
  if (f.avx2) cpu += " avx2";
  if (f.clmul) cpu += " pclmul";
  if (f.avx512f) cpu += " avx512f";
  if (f.avx512vl) cpu += " avx512vl";
  if (f.armv8_crc) cpu += " armv8-crc";
  if (cpu.empty()) cpu = " none";
  std::string forced = g_forced.load(std::memory_order_relaxed)
                           ? TierName(ActiveTier())
                           : (ForceScalarFromEnv() ? "scalar (env)" : "none");
  return std::string(TierName(ActiveTier())) + " (cpu:" + cpu +
         "; forced: " + forced + ")";
}

}  // namespace fsx::simd
