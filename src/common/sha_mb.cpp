#include "common/sha_mb.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "common/cpu.h"
#include "common/fingerprint.h"
#include "common/sha1.h"
#include "common/sha256.h"

#if defined(__x86_64__) || defined(__i386__)
#define DEFRAG_SIMD_X86 1
#include <immintrin.h>
#endif

namespace defrag::simd {

namespace {

using std::size_t;
using std::uint32_t;
using std::uint64_t;
using std::uint8_t;

/// SHA-256 round constants (FIPS 180-4), shared by every lane width.
constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<uint32_t, 5> kSha1Init = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
constexpr std::array<uint32_t, 8> kSha256Init = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

/// Idle lanes chew on this once their message is done.
constexpr uint8_t kZeroBlock[64] = {};

#if DEFRAG_SIMD_X86

// ---- 4-lane SSE4.1 kernels ------------------------------------------------
#define MB_ATTR __attribute__((target("sse4.1")))
#define MB_LANES 4
#define MB_VEC __m128i
#define MB_FN(x) x##_x4_sse41
#define MB_ADD(a, b) _mm_add_epi32((a), (b))
#define MB_XOR(a, b) _mm_xor_si128((a), (b))
#define MB_AND(a, b) _mm_and_si128((a), (b))
#define MB_OR(a, b) _mm_or_si128((a), (b))
#define MB_SHLI(v, n) _mm_slli_epi32((v), (n))
#define MB_SHRI(v, n) _mm_srli_epi32((v), (n))
#define MB_SET1(x) _mm_set1_epi32(static_cast<int>(x))
#define MB_LOADU(p) _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
#define MB_LOADA(p) _mm_load_si128(reinterpret_cast<const __m128i*>(p))
#define MB_STOREA(p, v) _mm_store_si128(reinterpret_cast<__m128i*>(p), (v))
#define MB_BSWAP(v)                                                       \
  _mm_shuffle_epi8((v), _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, \
                                      8, 15, 14, 13, 12))
#include "common/sha_mb_kernels.inc"  // NOLINT(bugprone-suspicious-include): X-macro body, included per lane width by design
#undef MB_ATTR
#undef MB_LANES
#undef MB_VEC
#undef MB_FN
#undef MB_ADD
#undef MB_XOR
#undef MB_AND
#undef MB_OR
#undef MB_SHLI
#undef MB_SHRI
#undef MB_SET1
#undef MB_LOADU
#undef MB_LOADA
#undef MB_STOREA
#undef MB_BSWAP

// ---- 8-lane AVX2 kernels --------------------------------------------------
#define MB_ATTR __attribute__((target("avx2")))
#define MB_LANES 8
#define MB_VEC __m256i
#define MB_FN(x) x##_x8_avx2
#define MB_ADD(a, b) _mm256_add_epi32((a), (b))
#define MB_XOR(a, b) _mm256_xor_si256((a), (b))
#define MB_AND(a, b) _mm256_and_si256((a), (b))
#define MB_OR(a, b) _mm256_or_si256((a), (b))
#define MB_SHLI(v, n) _mm256_slli_epi32((v), (n))
#define MB_SHRI(v, n) _mm256_srli_epi32((v), (n))
#define MB_SET1(x) _mm256_set1_epi32(static_cast<int>(x))
#define MB_LOADU(p) _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
#define MB_LOADA(p) _mm256_load_si256(reinterpret_cast<const __m256i*>(p))
#define MB_STOREA(p, v) _mm256_store_si256(reinterpret_cast<__m256i*>(p), (v))
#define MB_BSWAP(v)                                                           \
  _mm256_shuffle_epi8(                                                        \
      (v), _mm256_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14,    \
                            13, 12, 3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8,    \
                            15, 14, 13, 12))
#include "common/sha_mb_kernels.inc"  // NOLINT(bugprone-suspicious-include): X-macro body, included per lane width by design
#undef MB_ATTR
#undef MB_LANES
#undef MB_VEC
#undef MB_FN
#undef MB_ADD
#undef MB_XOR
#undef MB_AND
#undef MB_OR
#undef MB_SHLI
#undef MB_SHRI
#undef MB_SET1
#undef MB_LOADU
#undef MB_LOADA
#undef MB_STOREA
#undef MB_BSWAP

// ---- 16-lane AVX-512 kernels ---------------------------------------------
// AVX-512BW for the byte shuffle (cpu::detect() requires it for kAvx512);
// rotates are vprold/vprord and the round functions one vpternlogd each
// (truth tables over x=0xF0, y=0xCC, z=0xAA). Like the transpose in the
// kernel body, shifts, rotates, ternary logic and the broadcast use the
// all-ones-mask maskz forms, which compute the same: GCC 12's unmasked
// wrappers raise false -Wuninitialized warnings (GCC bug 105593).
#define MB_ATTR __attribute__((target("avx2,avx512f,avx512bw")))
#define MB_LANES 16
#define MB_VEC __m512i
#define MB_FN(x) x##_x16_avx512
#define MB_ADD(a, b) _mm512_add_epi32((a), (b))
#define MB_XOR(a, b) _mm512_xor_si512((a), (b))
#define MB_AND(a, b) _mm512_and_si512((a), (b))
#define MB_OR(a, b) _mm512_or_si512((a), (b))
#define MB_SHLI(v, n) _mm512_maskz_slli_epi32(0xFFFF, (v), (n))
#define MB_SHRI(v, n) _mm512_maskz_srli_epi32(0xFFFF, (v), (n))
#define MB_SET1(x) _mm512_set1_epi32(static_cast<int>(x))
#define MB_LOADU(p) _mm512_loadu_si512(p)
#define MB_LOADA(p) _mm512_load_si512(p)
#define MB_STOREA(p, v) _mm512_store_si512((p), (v))
#define MB_BSWAP(v)                                                     \
  _mm512_shuffle_epi8(                                                  \
      (v), _mm512_maskz_broadcast_i32x4(                                \
               0xFFFF, _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, \
                                     8, 15, 14, 13, 12)))
#define MB_ROTL(v, n) _mm512_maskz_rol_epi32(0xFFFF, (v), (n))
#define MB_ROTR(v, n) _mm512_maskz_ror_epi32(0xFFFF, (v), (n))
#define MB_TERNLOG(x, y, z, table) \
  _mm512_maskz_ternarylogic_epi32(0xFFFF, (x), (y), (z), (table))
#define MB_CH(x, y, z) MB_TERNLOG((x), (y), (z), 0xCA)
#define MB_MAJ(x, y, z) MB_TERNLOG((x), (y), (z), 0xE8)
#define MB_XOR3(x, y, z) MB_TERNLOG((x), (y), (z), 0x96)
#include "common/sha_mb_kernels.inc"  // NOLINT(bugprone-suspicious-include): X-macro body, included per lane width by design
#undef MB_ATTR
#undef MB_LANES
#undef MB_VEC
#undef MB_FN
#undef MB_ADD
#undef MB_XOR
#undef MB_AND
#undef MB_OR
#undef MB_SHLI
#undef MB_SHRI
#undef MB_SET1
#undef MB_LOADU
#undef MB_LOADA
#undef MB_STOREA
#undef MB_BSWAP
#undef MB_TERNLOG

/// Per-message schedule: where each 64-byte block lives. The tail buffer
/// materializes the final 1–2 padded blocks exactly as the incremental
/// hashers' finish() would (0x80, zeros, 64-bit big-endian bit length).
struct LaneTask {
  const uint8_t* data = kZeroBlock;
  size_t full_blocks = 0;
  size_t tail_blocks = 0;
  size_t nblocks = 0;
  alignas(8) uint8_t tail[128] = {};
};

void prepare_task(ByteView msg, LaneTask& t) {
  t.data = msg.data() != nullptr ? msg.data() : kZeroBlock;
  t.full_blocks = msg.size() / 64;
  const size_t rem = msg.size() % 64;
  std::memset(t.tail, 0, sizeof(t.tail));
  if (rem > 0) std::memcpy(t.tail, msg.data() + 64 * t.full_blocks, rem);
  t.tail[rem] = 0x80;
  t.tail_blocks = (rem + 1 + 8 <= 64) ? 1 : 2;
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  uint8_t* const len_be = t.tail + 64 * t.tail_blocks - 8;
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  }
  t.nblocks = t.full_blocks + t.tail_blocks;
}

const uint8_t* block_ptr(const LaneTask& t, size_t b) {
  if (b < t.full_blocks) return t.data + 64 * b;
  const size_t tb = b - t.full_blocks;
  if (tb < t.tail_blocks) return t.tail + 64 * tb;
  return kZeroBlock;
}

void emit_digest(const uint32_t* state_col0, size_t lanes, size_t lane,
                 size_t words, uint8_t* out) {
  // state is row-major [word][lane]; column `lane` is one message's state.
  for (size_t wi = 0; wi < words; ++wi) {
    const uint32_t v = state_col0[wi * lanes + lane];
    out[4 * wi + 0] = static_cast<uint8_t>(v >> 24);
    out[4 * wi + 1] = static_cast<uint8_t>(v >> 16);
    out[4 * wi + 2] = static_cast<uint8_t>(v >> 8);
    out[4 * wi + 3] = static_cast<uint8_t>(v);
  }
}

/// Drive one batch through a lane kernel: group messages of similar block
/// counts, run the kernel block-by-block, capture each lane's digest the
/// moment its own final (padded) block has been compressed.
template <size_t kLanes, size_t kWords, typename KernelFn>
void mb_drive(KernelFn kernel, const std::array<uint32_t, kWords>& init,
              const ByteView* data, size_t n, uint8_t* out,
              size_t digest_stride) {
  std::vector<LaneTask> tasks(n);
  for (size_t i = 0; i < n; ++i) prepare_task(data[i], tasks[i]);

  // Longest messages first: lanes inside a group then finish near each
  // other, which minimizes zero-block churn.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return tasks[a].nblocks > tasks[b].nblocks;
  });

  for (size_t g = 0; g < n; g += kLanes) {
    const size_t lanes = std::min(kLanes, n - g);
    alignas(64) uint32_t state[kWords][kLanes];
    for (size_t wi = 0; wi < kWords; ++wi) {
      for (size_t l = 0; l < kLanes; ++l) state[wi][l] = init[wi];
    }
    const size_t max_blocks = tasks[order[g]].nblocks;  // sorted: first=max
    const uint8_t* blocks[kLanes];
    for (size_t b = 0; b < max_blocks; ++b) {
      for (size_t l = 0; l < kLanes; ++l) {
        blocks[l] =
            l < lanes ? block_ptr(tasks[order[g + l]], b) : kZeroBlock;
      }
      kernel(state, blocks);
      for (size_t l = 0; l < lanes; ++l) {
        if (tasks[order[g + l]].nblocks == b + 1) {
          emit_digest(&state[0][0], kLanes, l, kWords,
                      out + digest_stride * order[g + l]);
        }
      }
    }
  }
}

#endif  // DEFRAG_SIMD_X86

/// Clamp the requested level to what this host supports.
cpu::IsaLevel clamp_level(cpu::IsaLevel level) {
  if (static_cast<int>(level) > static_cast<int>(cpu::detected_isa_level())) {
    level = cpu::detected_isa_level();
  }
  return level;
}

}  // namespace

void sha1_many_at(cpu::IsaLevel level, const ByteView* data, std::size_t n,
                  Sha1::Digest* out) {
  if (n == 0) return;
  level = clamp_level(level);
#if DEFRAG_SIMD_X86
  if (n >= 2 && level == cpu::IsaLevel::kAvx512) {
    mb_drive<16, 5>(&sha1_blocks_x16_avx512, kSha1Init, data, n, out->data(),
                    sizeof(Sha1::Digest));
    return;
  }
  if (n >= 2 && level == cpu::IsaLevel::kAvx2) {
    mb_drive<8, 5>(&sha1_blocks_x8_avx2, kSha1Init, data, n, out->data(),
                   sizeof(Sha1::Digest));
    return;
  }
  if (n >= 2 && level == cpu::IsaLevel::kSse41) {
    mb_drive<4, 5>(&sha1_blocks_x4_sse41, kSha1Init, data, n, out->data(),
                   sizeof(Sha1::Digest));
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = Sha1::hash(data[i]);
}

void sha256_many_at(cpu::IsaLevel level, const ByteView* data, std::size_t n,
                    Sha256::Digest* out) {
  if (n == 0) return;
  level = clamp_level(level);
#if DEFRAG_SIMD_X86
  if (n >= 2 && level == cpu::IsaLevel::kAvx512) {
    mb_drive<16, 8>(&sha256_blocks_x16_avx512, kSha256Init, data, n,
                    out->data(), sizeof(Sha256::Digest));
    return;
  }
  if (n >= 2 && level == cpu::IsaLevel::kAvx2) {
    mb_drive<8, 8>(&sha256_blocks_x8_avx2, kSha256Init, data, n, out->data(),
                   sizeof(Sha256::Digest));
    return;
  }
  if (n >= 2 && level == cpu::IsaLevel::kSse41) {
    mb_drive<4, 8>(&sha256_blocks_x4_sse41, kSha256Init, data, n,
                   out->data(), sizeof(Sha256::Digest));
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = Sha256::hash(data[i]);
}

void sha1_many(const ByteView* data, std::size_t n, Sha1::Digest* out) {
  sha1_many_at(cpu::active_isa_level(), data, n, out);
}

void sha256_many(const ByteView* data, std::size_t n, Sha256::Digest* out) {
  sha256_many_at(cpu::active_isa_level(), data, n, out);
}

FingerprintBatch::FingerprintBatch(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  views_.reserve(capacity_);
  outs_.reserve(capacity_);
}

FingerprintBatch::~FingerprintBatch() noexcept { flush(); }

void FingerprintBatch::add(ByteView data, Fingerprint* out) {
  views_.push_back(data);
  outs_.push_back(out);
  if (views_.size() >= capacity_) flush();
}

void FingerprintBatch::flush() {
  if (views_.empty()) return;
  const std::size_t n = views_.size();
  std::vector<Sha1::Digest> digests(n);
  sha1_many(views_.data(), n, digests.data());
  for (std::size_t i = 0; i < n; ++i) outs_[i]->bytes = digests[i];
  flush_sizes_.push_back(static_cast<std::uint32_t>(n));
  views_.clear();
  outs_.clear();
}

}  // namespace defrag::simd
