// SiLo-Like engine: similarity-locality near-exact deduplication in the
// style of Xia et al. (USENIX ATC'11).
//
// Chunks are grouped into segments and consecutive segments into blocks.
// RAM holds only a similarity index (one representative fingerprint per
// stored segment -> the block that holds it). An incoming segment probes its
// representative(s); each distinct similar block found is loaded from disk
// (one seek) into a block cache, and the segment's chunks dedup against the
// cached blocks only. Duplicates whose copies live in unprobed blocks are
// *missed* and written again — that is the deduplication-efficiency loss the
// paper measures in Figs. 3 and 5, and it grows as de-linearization spreads
// a segment's duplicates over more blocks.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.h"
#include "dedup/engine.h"
#include "index/similarity_index.h"
#include "storage/container.h"

namespace defrag {

/// One stored block: the fingerprint->location map of a group of segments,
/// resident "on disk". Loading it into the cache costs one seek plus the
/// metadata transfer.
struct BlockRecord {
  BlockId id = 0;
  std::vector<std::pair<Fingerprint, ChunkLocation>> entries;

  std::uint64_t metadata_bytes() const {
    return entries.size() * kContainerEntryBytes;
  }
};

/// LRU cache of loaded blocks with a combined fingerprint view.
class BlockCache {
 public:
  explicit BlockCache(std::size_t capacity_blocks);

  void insert(const BlockRecord& block);
  bool contains_block(BlockId id) const { return blocks_.contains(id); }

  /// Combined lookup over every cached block; refreshes recency on hit.
  const ChunkLocation* find(const Fingerprint& fp);

  std::size_t block_count() const { return blocks_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Cached {
    BlockId id;
    std::vector<std::pair<Fingerprint, ChunkLocation>> entries;
  };
  using Order = std::list<Cached>;

  void evict_lru();

  std::size_t capacity_;
  Order order_;
  std::unordered_map<BlockId, Order::iterator> blocks_;
  std::unordered_map<Fingerprint, std::pair<Order::iterator, std::size_t>>
      fingerprints_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Per-backup SiLo-specific telemetry (similarity-detection outcomes).
struct SiloDecisionStats {
  std::uint64_t segments = 0;
  std::uint64_t rep_hits = 0;     // representative found in the RAM index
  std::uint64_t rep_misses = 0;   // segment had no similar stored segment
  std::uint64_t block_loads = 0;  // similar blocks fetched from disk
  std::uint64_t rescued_chunks = 0;  // dups found in cache despite rep miss
};

class SiloEngine : public DedupEngine {
 public:
  explicit SiloEngine(const EngineConfig& cfg);

  std::string name() const override { return "SiLo-Like"; }

  const SimilarityIndex& similarity_index() const { return similarity_; }
  std::size_t stored_blocks() const { return blocks_.size(); }
  const SiloDecisionStats& last_decision_stats() const { return decisions_; }

 private:
  void place(Generation& gen) override;

  /// Seal the open block: register its segments' representatives, persist
  /// the record, and keep it cached (it was just written — SiLo's locality).
  void seal_open_block();

  SimilarityIndex similarity_;
  std::vector<BlockRecord> blocks_;  // the on-disk block store
  BlockCache cache_;

  // Block under construction.
  BlockRecord open_block_;
  std::unordered_map<Fingerprint, ChunkLocation> open_block_map_;
  std::vector<Fingerprint> open_block_reps_;
  std::size_t open_block_segments_ = 0;
  BlockId next_block_id_ = 0;
  SiloDecisionStats decisions_;
};

}  // namespace defrag
