// Fixed-size chunking: the trivial baseline. Shifts destroy alignment, so
// dedup ratios collapse under insert/delete edits — kept for comparison
// benches and as the simplest possible Chunker implementation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chunking/chunker.h"

namespace defrag {

class FixedChunker final : public Chunker {
 public:
  explicit FixedChunker(const ChunkerParams& params = {});

  void split_to(ByteView data, const ChunkSink& sink) const override;
  std::string name() const override { return "fixed"; }
  std::uint32_t max_chunk_size() const override { return size_; }

 private:
  std::uint32_t size_;
};

}  // namespace defrag
