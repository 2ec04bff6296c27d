#include "chunking/gear_simd.h"

#include "common/cpu.h"
#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define DEFRAG_SIMD_X86 1
#include <immintrin.h>
#endif

namespace defrag::simd {

namespace {

using std::size_t;
using std::uint64_t;
using std::uint8_t;

#if DEFRAG_SIMD_X86

// The all-ones-mask forms of the unmasked intrinsics below compute the same
// thing; GCC 12's unmasked wrappers raise false -Wmaybe-uninitialized
// warnings (GCC bug 105593), as in common/sha_mb.cpp. The gather's merge
// source is zero, which also breaks its false dependency on the old
// destination.
#define GEAR_SLLI(v, n) _mm512_maskz_slli_epi64(0xFF, (v), (n))
#define GEAR_SLLV(v, n) _mm512_maskz_sllv_epi64(0xFF, (v), (n))
#define GEAR_PERMUTE(idx, v) _mm512_maskz_permutexvar_epi64(0xFF, (idx), (v))
#define GEAR_GATHER(bytes, table)                                      \
  _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF,            \
                              _mm512_maskz_cvtepu8_epi64(0xFF, (bytes)), \
                              (table), 8)

/// Hillis-Steele prefix scan across the 8 u64 lanes of `g`: lane j becomes
/// sum_{t<=j} g[t] << (j-t), i.e. the gear fold of 8 bytes starting from 0.
__attribute__((target("avx2,avx512f"))) inline __m512i gear_prefix8(
    __m512i g) {
  __m512i sh = _mm512_maskz_alignr_epi64(0xfe, g, _mm512_setzero_si512(), 7);
  g = _mm512_add_epi64(g, GEAR_SLLI(sh, 1));
  sh = _mm512_maskz_alignr_epi64(0xfc, g, _mm512_setzero_si512(), 6);
  g = _mm512_add_epi64(g, GEAR_SLLI(sh, 2));
  sh = _mm512_maskz_alignr_epi64(0xf0, g, _mm512_setzero_si512(), 4);
  g = _mm512_add_epi64(g, GEAR_SLLI(sh, 4));
  return g;
}

/// 32 bytes per iteration: four 8-lane gathers feed four prefix scans whose
/// cross-vector merges and running-hash fold are all OFF the loop-carried
/// chain (the only carried value is the broadcast of lane 31). Measured
/// gather-throughput-bound: ~9 cycles per vpgatherqq on Ice Lake is the
/// whole iteration cost.
__attribute__((target("avx2,avx512f"))) size_t gear_scan_avx512(
    const uint8_t* data, size_t pos, size_t end, uint64_t mask, uint64_t& h,
    const uint64_t* table) {
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i seven = _mm512_set1_epi64(7);
  const __m512i ls1 = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
  const __m512i ls9 = _mm512_setr_epi64(9, 10, 11, 12, 13, 14, 15, 16);
  const __m512i ls17 = _mm512_setr_epi64(17, 18, 19, 20, 21, 22, 23, 24);
  const __m512i ls25 = _mm512_setr_epi64(25, 26, 27, 28, 29, 30, 31, 32);
  __m512i hv = _mm512_set1_epi64(static_cast<long long>(h));
  while (pos + 32 <= end) {
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + pos));
    const __m128i b0 = _mm256_castsi256_si128(bytes);
    const __m128i b1 = _mm256_extracti128_si256(bytes, 1);
    const __m512i g0 = GEAR_GATHER(b0, table);
    const __m512i g1 = GEAR_GATHER(_mm_srli_si128(b0, 8), table);
    const __m512i g2 = GEAR_GATHER(b1, table);
    const __m512i g3 = GEAR_GATHER(_mm_srli_si128(b1, 8), table);
    const __m512i p0 = gear_prefix8(g0);
    __m512i p1 = gear_prefix8(g1);
    __m512i p2 = gear_prefix8(g2);
    __m512i p3 = gear_prefix8(g3);
    const __m512i c0 = GEAR_PERMUTE(seven, p0);
    p1 = _mm512_add_epi64(p1, GEAR_SLLV(c0, ls1));
    const __m512i c1 = GEAR_PERMUTE(seven, p1);
    p2 = _mm512_add_epi64(p2, GEAR_SLLV(c1, ls1));
    const __m512i c2 = GEAR_PERMUTE(seven, p2);
    p3 = _mm512_add_epi64(p3, GEAR_SLLV(c2, ls1));
    const __m512i v0 = _mm512_add_epi64(p0, GEAR_SLLV(hv, ls1));
    const __m512i v1 = _mm512_add_epi64(p1, GEAR_SLLV(hv, ls9));
    const __m512i v2 = _mm512_add_epi64(p2, GEAR_SLLV(hv, ls17));
    const __m512i v3 = _mm512_add_epi64(p3, GEAR_SLLV(hv, ls25));
    const unsigned hits =
        static_cast<unsigned>(_mm512_testn_epi64_mask(v0, vmask)) |
        (static_cast<unsigned>(_mm512_testn_epi64_mask(v1, vmask)) << 8) |
        (static_cast<unsigned>(_mm512_testn_epi64_mask(v2, vmask)) << 16) |
        (static_cast<unsigned>(_mm512_testn_epi64_mask(v3, vmask)) << 24);
    if (hits != 0) {
      alignas(64) uint64_t out[32];
      _mm512_store_si512(out, v0);
      _mm512_store_si512(out + 8, v1);
      _mm512_store_si512(out + 16, v2);
      _mm512_store_si512(out + 24, v3);
      const int j = __builtin_ctz(hits);
      h = out[static_cast<unsigned>(j)];
      return pos + static_cast<size_t>(j) + 1;
    }
    hv = GEAR_PERMUTE(seven, v3);
    pos += 32;
  }
  h = static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm512_maskz_extracti32x4_epi32(0xF, hv, 0)));
  return gear_scan_scalar(data, pos, end, mask, h, table);
}

#undef GEAR_SLLI
#undef GEAR_SLLV
#undef GEAR_PERMUTE
#undef GEAR_GATHER

#endif  // DEFRAG_SIMD_X86

}  // namespace

std::size_t gear_scan_scalar(const std::uint8_t* data, std::size_t pos,
                             std::size_t end, std::uint64_t mask,
                             std::uint64_t& h, const std::uint64_t* table) {
  uint64_t x = h;
  for (; pos < end; ++pos) {
    x = (x << 1) + table[data[pos]];
    if ((x & mask) == 0) {
      h = x;
      return pos + 1;
    }
  }
  h = x;
  return kNoBoundary;
}

GearScanFn gear_scan_for(cpu::IsaLevel level) {
#if DEFRAG_SIMD_X86
  if (level == cpu::IsaLevel::kAvx512) return &gear_scan_avx512;
#else
  (void)level;
#endif
  return &gear_scan_scalar;
}

GearScanFn active_gear_scan() {
  // Publish the dispatch decision once; consult the (test-overridable)
  // active level on every call so DEFRAG_FORCE_SCALAR and the in-process
  // override both steer production scans.
  static const bool published = [] {
    obs::MetricsRegistry::global()
        .gauge("system.cpu.isa_level")
        .set(static_cast<double>(static_cast<int>(cpu::active_isa_level())));
    return true;
  }();
  (void)published;
  return gear_scan_for(cpu::active_isa_level());
}

void add_simd_bytes(std::uint64_t bytes) {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("chunking.simd_bytes");
  counter.add(bytes);
}

}  // namespace defrag::simd
