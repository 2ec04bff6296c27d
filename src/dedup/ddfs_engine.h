// DDFS-Like engine: exact inline deduplication in the style of Zhu et al.
// (FAST'08) — summary vector (Bloom filter) + on-disk full chunk index +
// locality-preserved caching of container fingerprint metadata.
//
// Lookup path per chunk:
//   1. metadata cache (RAM, free)            — hit: duplicate, no I/O;
//   2. Bloom filter (RAM, free)              — negative: definitely new;
//   3. on-disk paged index (seek on page-cache miss)
//        - found: duplicate; prefetch the owning container's metadata
//          section (one more seek) so the chunk's neighbours dedup from RAM;
//        - absent (Bloom false positive): new.
//
// As placement de-linearizes across generations, a stream's duplicates
// scatter over more containers, each metadata prefetch covers fewer
// subsequent chunks, and throughput decays — the effect of paper Fig. 2.
//
// DeFrag and CBR layer a placement decision on this exact lookup path, so
// the one two-pass selective-rewrite loop they share lives here
// (place_with_rewrites); each supplies only its per-bin verdict. DDFS
// itself keeps its single-pass loop: every chunk, in-segment repeats
// included, goes through the full lookup path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunking/segmenter.h"
#include "dedup/engine.h"
#include "dedup/metadata_cache.h"
#include "index/bloom_filter.h"
#include "index/paged_index.h"
#include "storage/container.h"
#include "storage/disk_model.h"

namespace defrag {

class DdfsEngine : public DedupEngine {
 public:
  explicit DdfsEngine(const EngineConfig& cfg);

  std::string name() const override { return "DDFS-Like"; }

  const PagedIndex& index() const { return index_; }
  const BloomFilter& bloom() const { return bloom_; }
  const MetadataCache& metadata_cache() const { return metadata_cache_; }

 protected:
  /// DDFS placement: one pass, every chunk classified in stream order and
  /// either referenced where it lives or stored as new.
  void place(Generation& gen) override;

  /// Duplicates of one segment that share a stored container: the bin the
  /// selective-rewrite loop decides on as a whole.
  struct Bin {
    std::size_t chunks = 0;    // distinct duplicate chunks in the bin
    std::uint64_t bytes = 0;   // their bytes
    bool fresh = false;        // container written by this very backup
    bool rewrite = false;      // the verdict: rewrite the bin's chunks
  };
  using Bins = std::unordered_map<ContainerId, Bin>;
  /// Sets Bin::rewrite for every bin of one segment. Must leave fresh bins
  /// kept: their copies are already co-located with the stream.
  using RewriteVerdict = std::function<void(const SegmentRef& seg, Bins& bins)>;

  /// The selective-rewrite loop DeFrag and CBR share, run over `segments`
  /// (a grouping of gen.segments). Per segment, two passes:
  ///  1. classify every chunk through classify() (charging the lookup I/O),
  ///     record ground truth, mark in-segment repeats as local, and bin the
  ///     distinct duplicates by the container of their stored copy;
  ///  2. after `verdict` has marked the bins, emit in stream order: new
  ///     chunks are stored, duplicates in a rewrite bin are appended anew
  ///     (and the index repointed at the copy) while the stream's rewritten
  ///     bytes stay within `rewrite_budget`, other duplicates are
  ///     referenced where they live, and local repeats reuse whatever their
  ///     first occurrence resolved to.
  /// DDFS stays out of this loop: its in-segment repeats pay a lookup and
  /// a metadata load, which the local shortcut here skips.
  void place_with_rewrites(Generation& gen,
                           const std::vector<SegmentRef>& segments,
                           const RewriteVerdict& verdict,
                           std::uint64_t rewrite_budget);

  /// Classify one chunk, charging lookup I/O. Returns the stored location
  /// if duplicate, nullopt if new.
  std::optional<IndexValue> classify(const StreamChunk& chunk, DiskSim& sim);

  /// Write a chunk as new data and publish it in bloom + index.
  ChunkLocation store_chunk(const StreamChunk& chunk, ByteView stream,
                            SegmentId segment, DiskSim& sim);

  PagedIndex index_;
  BloomFilter bloom_;
  MetadataCache metadata_cache_;

 private:
  /// Publish cumulative lookup-path state (metadata-cache hit/miss totals,
  /// bloom fill ratio) as gauges, at the end of either placement loop.
  void record_lookup_metrics();
};

}  // namespace defrag
