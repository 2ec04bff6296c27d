#include "dedup/silo_engine.h"

#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "dedup/engine.h"
#include "obs/metrics.h"
#include "storage/container.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

BlockCache::BlockCache(std::size_t capacity_blocks)
    : capacity_(capacity_blocks) {
  DEFRAG_CHECK(capacity_ >= 1);
}

void BlockCache::evict_lru() {
  DEFRAG_CHECK(!order_.empty());
  auto victim = std::prev(order_.end());
  for (const auto& [fp, loc] : victim->entries) {
    auto it = fingerprints_.find(fp);
    if (it != fingerprints_.end() && it->second.first == victim) {
      fingerprints_.erase(it);
    }
  }
  blocks_.erase(victim->id);
  order_.erase(victim);
}

void BlockCache::insert(const BlockRecord& block) {
  if (auto existing = blocks_.find(block.id); existing != blocks_.end()) {
    order_.splice(order_.begin(), order_, existing->second);
    return;
  }
  while (blocks_.size() >= capacity_) evict_lru();
  order_.push_front(Cached{block.id, block.entries});
  const auto it = order_.begin();
  blocks_.emplace(block.id, it);
  for (std::size_t i = 0; i < it->entries.size(); ++i) {
    fingerprints_.insert_or_assign(it->entries[i].first, std::make_pair(it, i));
  }
}

const ChunkLocation* BlockCache::find(const Fingerprint& fp) {
  auto it = fingerprints_.find(fp);
  if (it == fingerprints_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  order_.splice(order_.begin(), order_, it->second.first);
  return &it->second.first->entries[it->second.second].second;
}

SiloEngine::SiloEngine(const EngineConfig& cfg)
    : DedupEngine(cfg), cache_(cfg.silo_block_cache_blocks) {
  open_block_.id = next_block_id_;
}

void SiloEngine::seal_open_block() {
  if (open_block_.entries.empty()) return;
  for (const Fingerprint& rep : open_block_reps_) {
    // RAM-bounded SHTable emulation: refresh this rep's registration with
    // probability silo_index_sample_rate (deterministic in (rep, block) so
    // runs are reproducible). A skipped refresh leaves the rep pointing at
    // the older block that last registered it.
    if (cfg_.silo_index_sample_rate < 1.0) {
      SplitMix64 coin(rep.prefix64() ^ (open_block_.id * 0x9e3779b97f4a7c15ull));
      const double u = static_cast<double>(coin.next() >> 11) * 0x1.0p-53;
      if (u >= cfg_.silo_index_sample_rate && similarity_.find(rep)) continue;
    }
    similarity_.add(rep, open_block_.id);
  }
  // Keep the just-written block hot: its segments are this stream's recent
  // past, the most likely match for the stream's near future.
  cache_.insert(open_block_);
  blocks_.push_back(std::move(open_block_));

  open_block_ = BlockRecord{};
  open_block_.id = ++next_block_id_;
  open_block_map_.clear();
  open_block_reps_.clear();
  open_block_segments_ = 0;
}

void SiloEngine::place(Generation& gen) {
  BackupResult& res = gen.res;
  decisions_ = SiloDecisionStats{};
  for (const SegmentRef& seg : gen.segments) {
    const SegmentId seg_id = allocate_segment_id();
    ++decisions_.segments;

    // Similarity detection: probe the representative fingerprint and load
    // the similar block if it is not already cached.
    const std::vector<Fingerprint> reps =
        representative_sample(gen.chunks, seg, 1);
    bool any_rep_hit = false;
    for (const Fingerprint& rep : reps) {
      const std::optional<BlockId> block = similarity_.find(rep);
      if (!block) continue;
      any_rep_hit = true;
      if (*block == open_block_.id) continue;
      if (!cache_.contains_block(*block)) {
        const BlockRecord& record = blocks_.at(*block);
        gen.sim.seek();
        gen.sim.read(record.metadata_bytes());
        cache_.insert(record);
        ++decisions_.block_loads;
      }
    }
    if (any_rep_hit) {
      ++decisions_.rep_hits;
    } else {
      ++decisions_.rep_misses;
    }

    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = gen.chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      ChunkLocation loc;
      const ChunkLocation* found = nullptr;
      // The open block (this stream's immediate past) dedups for free...
      if (auto it = open_block_map_.find(c.fp); it != open_block_map_.end()) {
        found = &it->second;
      } else {
        // ...then the cached similar blocks.
        found = cache_.find(c.fp);
      }

      if (found) {
        DEFRAG_CHECK_MSG(truly_dup, "SiLo matched a chunk never stored");
        loc = *found;
        res.removed_bytes += c.size;
        if (!any_rep_hit) ++decisions_.rescued_chunks;
      } else {
        const ByteView data = gen.stream.subspan(c.stream_offset, c.size);
        loc = store_.append(c.fp, data, seg_id, gen.sim);
        if (truly_dup) {
          res.missed_dup_bytes += c.size;  // near-exact: a dup slipped by
        } else {
          res.unique_bytes += c.size;
        }
      }

      gen.recipe.add(c.fp, loc);
      // The block records *all* of the segment's chunks with resolved
      // locations, so a future similar segment dedups even the parts this
      // one deduplicated.
      open_block_.entries.emplace_back(c.fp, loc);
      open_block_map_.insert_or_assign(c.fp, loc);
    }

    open_block_reps_.push_back(representative_fingerprint(gen.chunks, seg));
    if (++open_block_segments_ >= cfg_.silo_segments_per_block) {
      seal_open_block();
    }
  }
  seal_open_block();
  auto& reg = obs::MetricsRegistry::global();
  const std::string& p = metrics_prefix();
  reg.counter(p + "rep_hits").add(decisions_.rep_hits);
  reg.counter(p + "rep_misses").add(decisions_.rep_misses);
  reg.counter(p + "block_loads").add(decisions_.block_loads);
  reg.counter(p + "rescued_chunks").add(decisions_.rescued_chunks);
}

}  // namespace defrag
