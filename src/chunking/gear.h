// Gear-hash content-defined chunking (Ddelta / FastCDC family).
//
// The gear hash folds one table lookup and a shift per byte:
//   h = (h << 1) + gear[b]
// which makes it 3-5x faster than Rabin while producing comparable boundary
// distributions. Optionally applies FastCDC's two-level normalized chunking:
// a stricter mask before the average-size point and a looser one after it,
// which tightens the chunk-size distribution around the average.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chunking/chunker.h"

namespace defrag {

class GearChunker final : public Chunker {
 public:
  /// `normalized` enables FastCDC normalized chunking (level 2).
  explicit GearChunker(const ChunkerParams& params = {}, bool normalized = true);

  void split_to(ByteView data, const ChunkSink& sink) const override;
  std::string name() const override {
    return normalized_ ? "gear-nc2" : "gear";
  }
  std::uint32_t max_chunk_size() const override { return params_.max_size; }

  /// The 256-entry random table; exposed for tests (must be stable across
  /// runs and platforms: it is generated from a fixed SplitMix64 seed).
  static const std::array<std::uint64_t, 256>& table();

 private:
  ChunkerParams params_;
  bool normalized_;
  std::uint64_t mask_strict_;  // used before the average point (harder)
  std::uint64_t mask_avg_;     // plain gear mask at the average size
  std::uint64_t mask_loose_;   // used after the average point (easier)
};

}  // namespace defrag
