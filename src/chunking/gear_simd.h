// Runtime-dispatched gear boundary scan kernels (the chunking hot loop).
//
// Every kernel implements the same contract over a half-open byte region:
// starting from rolling hash `h`, fold bytes data[pos..end) one at a time
// with  h = (h << 1) + table[b]  and return the first boundary — the index
// ONE PAST the byte whose fold made (h & mask) == 0 — leaving `h` at the
// post-hit value. When no byte hits, the kernel returns kNoBoundary with
// `h` folded across the whole region. Kernels are BIT-IDENTICAL to
// gear_scan_scalar() at any region length, alignment and mask (the wrapping
// mod-2^64 adds of the gear recurrence are associative, so block
// reformulations are exact); the differential tests and the fuzz_chunker
// oracle enforce this, which is what makes the ISA level a pure performance
// knob.
//
// Honest performance note (measured, documented in DESIGN.md): the exact
// gear recurrence is bound by its per-byte table load on every x86
// formulation tried — block scans, prefix scans and gathers all land within
// ~±15% of the scalar loop. The AVX-512 gather+prefix kernel is the only
// one measured ahead (~1.1×), so it is the only wide kernel; SSE4.1 and
// AVX2 hosts run the scalar loop. The large SIMD win in this substrate is
// multi-buffer fingerprinting (common/sha_mb.h).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace defrag::simd {

/// Returned when no byte in the region produced a boundary.
inline constexpr std::size_t kNoBoundary = static_cast<std::size_t>(-1);

/// One scan kernel. `table` is the 256-entry gear table
/// (GearChunker::table().data()).
using GearScanFn = std::size_t (*)(const std::uint8_t* data, std::size_t pos,
                                   std::size_t end, std::uint64_t mask,
                                   std::uint64_t& h,
                                   const std::uint64_t* table);

/// The portable reference kernel — byte-for-byte the loop the chunker
/// shipped with before dispatch existed.
std::size_t gear_scan_scalar(const std::uint8_t* data, std::size_t pos,
                             std::size_t end, std::uint64_t mask,
                             std::uint64_t& h, const std::uint64_t* table);

/// The kernel for `level`: the AVX-512 kernel at kAvx512 on x86 builds, the
/// scalar loop below it (and on every non-x86 build). Callers pass a level
/// the host supports; differential tests and benches sweep it explicitly.
GearScanFn gear_scan_for(cpu::IsaLevel level);

/// The kernel production dispatch uses: gear_scan_for() at
/// cpu::active_isa_level(). Also publishes the `system.cpu.isa_level` gauge
/// on first call.
GearScanFn active_gear_scan();

/// Account bytes scanned through a non-scalar kernel into the
/// `chunking.simd_bytes` counter. Callers accumulate per split and report
/// once; the counter itself is a relaxed atomic.
void add_simd_bytes(std::uint64_t bytes);

}  // namespace defrag::simd
