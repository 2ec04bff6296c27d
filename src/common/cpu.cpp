#include "common/cpu.h"

#include <atomic>
#include <cstdlib>

namespace defrag::cpu {

namespace {

IsaLevel detect() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads CPUID once at startup (libgcc/compiler-rt
  // caches it); both GCC and Clang provide it on x86.
  // kAvx512 needs BW as well as F: the 16-lane SHA kernels byte-swap with
  // vpshufb on zmm. Every AVX-512 part without BW is a Xeon Phi, so the
  // gear kernel (F only) loses no real host to this.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx2")) {
    return IsaLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.1")) return IsaLevel::kSse41;
#endif
  return IsaLevel::kScalar;
}

/// -1 = no override; otherwise the pinned IsaLevel. Relaxed is enough: the
/// override is test-only and tests pin it before exercising the kernels.
std::atomic<int> g_override{-1};

}  // namespace

IsaLevel detected_isa_level() {
  static const IsaLevel level = detect();
  return level;
}

IsaLevel active_isa_level() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<IsaLevel>(forced);
  // The environment is read once: flipping DEFRAG_FORCE_SCALAR mid-process
  // is not a supported way to change dispatch (use the test override).
  static const IsaLevel level = [] {
    // getenv() at first use: the first active_isa_level() call happens on
    // the first split/fingerprint, before which tests have either pinned an
    // override or left the environment alone.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env query, value cached
    const char* force = std::getenv("DEFRAG_FORCE_SCALAR");
    if (force != nullptr && force[0] == '1' && force[1] == '\0') {
      return IsaLevel::kScalar;
    }
    return detected_isa_level();
  }();
  return level;
}

const char* isa_level_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kSse41:
      return "sse41";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void force_isa_for_testing(IsaLevel level) {
  IsaLevel clamped = level;
  if (static_cast<int>(clamped) > static_cast<int>(detected_isa_level())) {
    clamped = detected_isa_level();
  }
  g_override.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

void clear_isa_override_for_testing() {
  g_override.store(-1, std::memory_order_relaxed);
}

}  // namespace defrag::cpu
