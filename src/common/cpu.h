// Runtime CPU feature detection for the SIMD hot-loop dispatch.
//
// The two byte-at-a-time loops every ingested byte passes through — the gear
// boundary scan (chunking/gear_simd.h) and SHA fingerprinting
// (common/sha_mb.h) — pick their kernel once per process from the ISA level
// reported here. The contract that makes dispatch safe to sprinkle anywhere:
//
//  - every level's kernel produces BIT-IDENTICAL results to the scalar
//    reference (enforced by the differential tests and fuzz oracles), so the
//    level is a pure performance knob, never a behaviour switch;
//  - `DEFRAG_FORCE_SCALAR=1` in the environment pins the active level to
//    kScalar, letting CI run the whole test suite through the fallback path
//    on hardware that would otherwise always dispatch wide;
//  - tests may pin an arbitrary level in-process via
//    force_isa_for_testing(), which wins over both detection and the
//    environment until cleared.
#pragma once

namespace defrag::cpu {

/// Instruction-set levels the dispatched kernels are built for, in strictly
/// increasing order of capability: a kernel compiled for level L may be run
/// whenever active_isa_level() >= L.
enum class IsaLevel : int {
  kScalar = 0,  // portable C++, always available
  kSse41 = 1,   // SSE4.1 (128-bit integer compares)
  kAvx2 = 2,    // AVX2 (256-bit integer ops, used by the 8-lane SHA kernels)
  kAvx512 = 3,  // AVX-512 F + BW + AVX2 (512-bit gather/prefix gear scan,
                // 16-lane SHA kernels; BW for their byte swap)
};

/// Hardware capability via CPUID, independent of overrides. Detected once
/// and cached; identical for the process lifetime.
IsaLevel detected_isa_level();

/// The level dispatch actually uses: a test override if one is pinned, else
/// kScalar when DEFRAG_FORCE_SCALAR=1 was set at first call, else the
/// detected level. Cheap enough to consult per region scanned (one relaxed
/// atomic load).
IsaLevel active_isa_level();

/// Stable lowercase name ("scalar", "sse41", "avx2", "avx512") for logs,
/// metrics documentation and bench labels.
const char* isa_level_name(IsaLevel level);

/// Pin / unpin the active level from tests. Pinning above
/// detected_isa_level() is clamped to the detected level so a test sweep
/// over all levels is safe on narrow hardware.
void force_isa_for_testing(IsaLevel level);
void clear_isa_override_for_testing();

}  // namespace defrag::cpu
