#include "fsync/store/crashpoint.h"

#include <atomic>
#include <cstdlib>

#include <unistd.h>

namespace fsx::store {

namespace {

CrashHook g_hook;
std::atomic<uint64_t> g_count{0};

}  // namespace

void SetCrashHook(CrashHook hook) {
  g_hook = std::move(hook);
  g_count.store(0, std::memory_order_relaxed);
}

uint64_t CrashPointsFired() {
  return g_count.load(std::memory_order_relaxed);
}

void ResetCrashPoints() { g_count.store(0, std::memory_order_relaxed); }

bool ArmCrashFromEnv() {
  const char* at = std::getenv("FSX_CRASH_AT");
  if (at == nullptr || *at == '\0') {
    return false;
  }
  char* end = nullptr;
  unsigned long long n = std::strtoull(at, &end, 10);
  if (end == at || *end != '\0') {
    return false;
  }
  SetCrashHook([n](const char*, uint64_t index) {
    if (index == n) {
      _exit(kCrashExitCode);
    }
  });
  return true;
}

void FireCrashPoint(const char* label) {
  uint64_t index = g_count.fetch_add(1, std::memory_order_relaxed);
  if (g_hook) {
    g_hook(label, index);
  }
}

}  // namespace fsx::store
