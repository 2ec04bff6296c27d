// Chunker interface: splits a byte stream into variable-size chunks.
//
// All deduplication engines in this repository consume the same chunk
// sequence for a given (chunker, data) pair, so baseline comparisons are
// apples-to-apples: the only thing that differs between DDFS-Like, SiLo-Like
// and DeFrag is what they do with the chunks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace defrag {

/// A chunk boundary within a source buffer: [offset, offset + size).
struct ChunkRef {
  std::uint64_t offset = 0;
  std::uint32_t size = 0;

  friend bool operator==(const ChunkRef&, const ChunkRef&) = default;
};

/// Bounds every content-defined chunker must respect. Defaults follow the
/// classic backup-dedup configuration: 8 KiB average, 2 KiB min, 64 KiB max.
struct ChunkerParams {
  std::uint32_t min_size = 2 * 1024;
  std::uint32_t avg_size = 8 * 1024;
  std::uint32_t max_size = 64 * 1024;

  void validate() const;
};

/// Receives chunk boundaries in stream order, each as soon as it is known.
using ChunkSink = std::function<void(const ChunkRef&)>;

class Chunker {
 public:
  virtual ~Chunker() = default;

  /// Split `data` into contiguous chunks covering the whole buffer,
  /// invoking `sink` once per chunk *as each boundary is found*. This is
  /// the one boundary loop: split() and the ingest paths'
  /// chunk_and_fingerprint() collect it into a vector. Deterministic: equal
  /// input always yields equal boundaries, and split()/split_to() emit the
  /// identical sequence.
  virtual void split_to(ByteView data, const ChunkSink& sink) const = 0;

  /// Split `data` into contiguous chunks covering the whole buffer.
  /// Non-virtual convenience wrapper over split_to().
  std::vector<ChunkRef> split(ByteView data) const;

  /// Human-readable algorithm name ("rabin", "gear", "fixed").
  virtual std::string name() const = 0;

  /// The longest chunk this chunker can emit. Every chunker restarts its
  /// state at each chunk start, so the chunk starting at offset t depends
  /// only on the bytes [t, t + max_chunk_size()) and on whether the buffer
  /// ends before that.
  virtual std::uint32_t max_chunk_size() const = 0;
};

/// Factory for the chunkers this library ships.
enum class ChunkerKind { kRabin, kGear, kFixed };

std::unique_ptr<Chunker> make_chunker(ChunkerKind kind,
                                      const ChunkerParams& params = {});

}  // namespace defrag
