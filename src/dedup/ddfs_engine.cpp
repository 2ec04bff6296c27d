#include "dedup/ddfs_engine.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "dedup/engine.h"
#include "index/paged_index.h"
#include "obs/metrics.h"
#include "storage/container.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

namespace {
// Summary-vector sizing: generous capacity at 1% target FP rate, as DDFS
// recommends. The filter never needs resizing within a run.
constexpr std::uint64_t kBloomCapacity = 8u << 20;
constexpr double kBloomFpRate = 0.01;
}  // namespace

DdfsEngine::DdfsEngine(const EngineConfig& cfg)
    : DedupEngine(cfg),
      index_(cfg.index),
      bloom_(kBloomCapacity, kBloomFpRate),
      metadata_cache_(cfg.metadata_cache_containers) {}

std::optional<IndexValue> DdfsEngine::classify(const StreamChunk& chunk,
                                               DiskSim& sim) {
  // 1. Locality-preserved cache: free RAM hit.
  if (const auto hit = metadata_cache_.find(chunk.fp)) {
    return IndexValue{
        ChunkLocation{hit->container, hit->entry->offset, hit->entry->size},
        hit->entry->segment};
  }

  // 2. Summary vector: a negative proves the chunk is new — no disk touched.
  if (!bloom_.may_contain(chunk.fp)) return std::nullopt;

  // 3. Full index on disk: pays a seek unless the page is cached.
  const std::optional<IndexValue> hit = index_.lookup(chunk.fp, sim);
  if (!hit) return std::nullopt;  // Bloom false positive

  // Locality-preserved caching: pull the owning container's metadata section
  // so this chunk's neighbours (likely the stream's next duplicates) dedup
  // from RAM.
  const auto& entries = store_.load_metadata(hit->location.container, sim);
  metadata_cache_.insert(hit->location.container, entries);
  return hit;
}

ChunkLocation DdfsEngine::store_chunk(const StreamChunk& chunk,
                                      ByteView stream, SegmentId segment,
                                      DiskSim& sim) {
  const ByteView data = stream.subspan(chunk.stream_offset, chunk.size);
  const ChunkLocation loc = store_.append(chunk.fp, data, segment, sim);
  bloom_.insert(chunk.fp);
  index_.insert(chunk.fp, IndexValue{loc, segment}, sim);
  return loc;
}

void DdfsEngine::record_lookup_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("dedup.metadata_cache.hits")
      .set(static_cast<double>(metadata_cache_.hits()));
  reg.gauge("dedup.metadata_cache.misses")
      .set(static_cast<double>(metadata_cache_.misses()));
  reg.gauge("dedup.metadata_cache.containers")
      .set(static_cast<double>(metadata_cache_.container_count()));
  reg.gauge("index.bloom.fill_ratio").set(bloom_.fill_ratio());
}

void DdfsEngine::place(Generation& gen) {
  BackupResult& res = gen.res;
  for (const SegmentRef& seg : gen.segments) {
    const SegmentId seg_id = allocate_segment_id();
    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = gen.chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      const std::optional<IndexValue> dup = classify(c, gen.sim);
      if (dup) {
        DEFRAG_CHECK_MSG(truly_dup, "classify() claimed a new chunk is dup");
        gen.recipe.add(c.fp, dup->location);
        res.removed_bytes += c.size;
      } else {
        // DDFS is exact: classify() only misses when the chunk is truly new.
        DEFRAG_CHECK_MSG(!truly_dup, "exact engine missed a duplicate");
        const ChunkLocation loc = store_chunk(c, gen.stream, seg_id, gen.sim);
        gen.recipe.add(c.fp, loc);
        res.unique_bytes += c.size;
      }
    }
  }
  record_lookup_metrics();
}

namespace {
/// Pass-1 classification of one chunk within a segment.
struct Classified {
  enum class Kind {
    kNew,    // never stored: write it
    kDup,    // stored copy exists; `value` names it
    kLocal,  // repeats an earlier chunk of this same segment
  };
  Kind kind = Kind::kNew;
  IndexValue value;
};
}  // namespace

void DdfsEngine::place_with_rewrites(Generation& gen,
                                     const std::vector<SegmentRef>& segments,
                                     const RewriteVerdict& verdict,
                                     std::uint64_t rewrite_budget) {
  BackupResult& res = gen.res;
  // Containers created by this very backup hold chunks that are already
  // co-located with the incoming stream; duplicates resolving there are
  // kept whatever the verdict (rewriting them buys no locality).
  const auto first_container_this_gen =
      static_cast<ContainerId>(store_.container_count());

  for (const SegmentRef& seg : segments) {
    const SegmentId seg_id = allocate_segment_id();

    // Pass 1 — classify every chunk through the DDFS machinery (this is
    // where the lookup I/O is charged) and bin distinct duplicates by the
    // stored placement unit — the container holding their existing copy,
    // i.e. what one disk seek retrieves (the premise of paper Eq. 2).
    std::vector<Classified> classified;
    classified.reserve(seg.chunk_count());
    Bins bins;
    std::unordered_set<Fingerprint> seen_in_segment;

    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = gen.chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      if (!seen_in_segment.insert(c.fp).second) {
        // A repeat within this very segment: whatever the first occurrence
        // resolves to is already co-located — always reference it.
        classified.push_back(Classified{Classified::Kind::kLocal, {}});
        continue;
      }

      const std::optional<IndexValue> hit = classify(c, gen.sim);
      DEFRAG_CHECK_MSG(!hit || truly_dup,
                       "classify() claimed a new chunk is dup");
      DEFRAG_CHECK_MSG(hit || !truly_dup, "exact engine missed a duplicate");
      if (hit) {
        Bin& bin = bins[hit->location.container];
        ++bin.chunks;
        bin.bytes += c.size;
        classified.push_back(Classified{Classified::Kind::kDup, *hit});
      } else {
        classified.push_back(Classified{Classified::Kind::kNew, {}});
      }
    }

    for (auto& [k, bin] : bins) bin.fresh = k >= first_container_this_gen;
    verdict(seg, bins);

    // Pass 2 — emit in stream order. Unique chunks and rewritten duplicates
    // are placed sequentially under this segment's id; kept duplicates are
    // referenced where they already live.
    std::unordered_map<Fingerprint, ChunkLocation> resolved;
    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = gen.chunks[i];
      const Classified& v = classified[i - seg.first];

      switch (v.kind) {
        case Classified::Kind::kNew: {
          const ChunkLocation loc = store_chunk(c, gen.stream, seg_id, gen.sim);
          gen.recipe.add(c.fp, loc);
          resolved.emplace(c.fp, loc);
          res.unique_bytes += c.size;
          break;
        }
        case Classified::Kind::kDup: {
          const Bin& bin = bins.at(v.value.location.container);
          DEFRAG_CHECK_MSG(!(bin.fresh && bin.rewrite),
                           "verdict rewrote a container of this backup");
          if (bin.rewrite && res.rewritten_bytes + c.size <= rewrite_budget) {
            // Keeping the reference would cost a far-away seek for a
            // sliver of the segment. Rewrite the chunk next to its stream
            // neighbours and repoint the index at the better-located copy.
            const ByteView data = gen.stream.subspan(c.stream_offset, c.size);
            const ChunkLocation loc =
                store_.append(c.fp, data, seg_id, gen.sim);
            index_.update(c.fp, IndexValue{loc, seg_id}, gen.sim);
            gen.recipe.add(c.fp, loc);
            resolved.emplace(c.fp, loc);
            res.rewritten_bytes += c.size;
          } else {
            gen.recipe.add(c.fp, v.value.location);
            resolved.emplace(c.fp, v.value.location);
            res.removed_bytes += c.size;
          }
          break;
        }
        case Classified::Kind::kLocal: {
          const auto it = resolved.find(c.fp);
          DEFRAG_CHECK_MSG(it != resolved.end(),
                           "local repeat before first occurrence");
          gen.recipe.add(c.fp, it->second);
          res.removed_bytes += c.size;
          break;
        }
      }
    }
  }
  record_lookup_metrics();
}

}  // namespace defrag
