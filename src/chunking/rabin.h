// Rabin-fingerprint content-defined chunking (LBFS-style).
//
// A 64-bit rolling Rabin fingerprint over a sliding window is reduced modulo
// an irreducible polynomial; a chunk boundary is declared where
// (fp & mask) == kMagic once the minimum chunk size is reached. Table-driven:
// one table folds the outgoing byte out of the window, another reduces the
// shifted fingerprint, so the inner loop is two XORs and two table loads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chunking/chunker.h"

namespace defrag {

class RabinChunker final : public Chunker {
 public:
  static constexpr std::size_t kWindowSize = 48;

  explicit RabinChunker(const ChunkerParams& params = {});

  void split_to(ByteView data, const ChunkSink& sink) const override;
  std::string name() const override { return "rabin"; }
  std::uint32_t max_chunk_size() const override { return params_.max_size; }

  /// Exposed for tests: the fingerprint of a full window, computed slowly.
  static std::uint64_t slow_fingerprint(ByteView window);

 private:
  ChunkerParams params_;
  std::uint64_t boundary_mask_;
};

namespace rabin_detail {

/// Polynomial arithmetic over GF(2) used to build the lookup tables, and the
/// irreducible polynomial from LBFS (degree 53).
inline constexpr std::uint64_t kPoly = 0x3DA3358B4DC173ull | (1ull << 53);
inline constexpr int kDegree = 53;

/// (a * x^shift) mod kPoly, bit-serial. Only used at table-build time.
std::uint64_t poly_mod_shift(std::uint64_t a, int shift);

struct Tables {
  // push_table[b]: contribution of byte b entering the fingerprint when the
  // fingerprint is shifted left by 8 bits (reduction of the overflowed bits).
  std::array<std::uint64_t, 256> shift;
  // pop_table[b]: contribution of byte b leaving a window of kWindowSize
  // bytes, i.e. b * x^(8*kWindowSize) mod kPoly.
  std::array<std::uint64_t, 256> pop;
};

const Tables& tables();

}  // namespace rabin_detail

}  // namespace defrag
