#include "dedup/restore_strategies.h"

#include <list>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/fingerprint.h"
#include "dedup/engine.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/lru_cache.h"
#include "storage/recipe.h"

namespace defrag {

std::string to_string(RestoreStrategy s) {
  switch (s) {
    case RestoreStrategy::kContainerLru:
      return "container-lru";
    case RestoreStrategy::kChunkLru:
      return "chunk-lru";
    case RestoreStrategy::kForwardAssembly:
      return "forward-assembly";
  }
  return "unknown";
}

namespace {

RestoreResult restore_container_lru(const ContainerStore& store,
                                    const Recipe& recipe, DiskSim& sim,
                                    const RestoreOptions& options,
                                    const RestoreSink& sink) {
  RestoreResult res;
  LruCache<ContainerId, char> cache(
      std::max<std::size_t>(1, options.cache_containers));
  for (const RecipeEntry& e : recipe.entries()) {
    if (cache.get(e.location.container) == nullptr) {
      store.load(e.location.container, sim);
      cache.put(e.location.container, 0);
      ++res.container_loads;
    }
    if (sink) sink(store.peek(e.location.container).read(e.location));
    res.logical_bytes += e.location.size;
  }
  res.cache_hit_rate = cache.hit_rate();
  return res;
}

/// Byte-budgeted LRU of chunk fingerprints (bookkeeping only; data always
/// comes from the authoritative store).
class ChunkLru {
 public:
  explicit ChunkLru(std::uint64_t budget_bytes) : budget_(budget_bytes) {}

  bool touch(const Fingerprint& fp) {
    auto it = map_.find(fp);
    if (it == map_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void insert(const Fingerprint& fp, std::uint32_t size) {
    order_.emplace_front(fp, size);
    map_[fp] = order_.begin();
    bytes_ += size;
    while (bytes_ > budget_ && order_.size() > 1) {
      auto& victim = order_.back();
      bytes_ -= victim.second;
      map_.erase(victim.first);
      order_.pop_back();
    }
  }

 private:
  std::uint64_t budget_;
  std::uint64_t bytes_ = 0;
  std::list<std::pair<Fingerprint, std::uint32_t>> order_;
  std::unordered_map<Fingerprint,
                     std::list<std::pair<Fingerprint, std::uint32_t>>::iterator>
      map_;
};

RestoreResult restore_chunk_lru(const ContainerStore& store,
                                const Recipe& recipe, DiskSim& sim,
                                const RestoreOptions& options,
                                const RestoreSink& sink) {
  RestoreResult res;
  // Chunk cache keyed by fingerprint, budgeted in bytes. Each miss is one
  // seek plus exactly the chunk's transfer — no prefetch amplification, but
  // also no locality benefit: paper Fig. 1's "one disk seek for every
  // single chunk" regime when duplicates scatter.
  ChunkLru cache(options.chunk_cache_bytes);
  std::uint64_t hits = 0, misses = 0;

  for (const RecipeEntry& e : recipe.entries()) {
    if (cache.touch(e.fp)) {
      ++hits;
    } else {
      ++misses;
      sim.seek();
      sim.read(e.location.size);
      ++res.container_loads;  // here: individual chunk reads
      cache.insert(e.fp, e.location.size);
    }
    if (sink) sink(store.peek(e.location.container).read(e.location));
    res.logical_bytes += e.location.size;
  }
  res.cache_hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  return res;
}

RestoreResult restore_forward_assembly(const ContainerStore& store,
                                       const Recipe& recipe, DiskSim& sim,
                                       const RestoreOptions& options,
                                       const RestoreSink& sink) {
  RestoreResult res;
  const auto& entries = recipe.entries();
  std::size_t window_start = 0;

  while (window_start < entries.size()) {
    // Grow the window until the assembly area is full.
    std::size_t window_end = window_start;
    std::uint64_t bytes = 0;
    while (window_end < entries.size() &&
           bytes + entries[window_end].location.size <=
               options.assembly_bytes) {
      bytes += entries[window_end].location.size;
      ++window_end;
    }
    if (window_end == window_start) window_end = window_start + 1;  // huge chunk

    // One pass: every container needed by this window is fetched exactly
    // once, no matter how its chunks interleave with other containers'.
    std::unordered_set<ContainerId> needed;
    for (std::size_t i = window_start; i < window_end; ++i) {
      needed.insert(entries[i].location.container);
    }
    for (ContainerId c : needed) {
      store.load(c, sim);
      ++res.container_loads;
    }
    if (sink) {
      for (std::size_t i = window_start; i < window_end; ++i) {
        const auto& e = entries[i];
        sink(store.peek(e.location.container).read(e.location));
      }
    }
    for (std::size_t i = window_start; i < window_end; ++i) {
      res.logical_bytes += entries[i].location.size;
    }
    window_start = window_end;
  }
  // The assembly area has no hit/miss notion; report the fraction of
  // entries that did not trigger a load as an analogous figure.
  res.cache_hit_rate =
      entries.empty() ? 0.0
                      : 1.0 - static_cast<double>(res.container_loads) /
                                  static_cast<double>(entries.size());
  return res;
}

}  // namespace

RestoreResult restore_with_strategy(const ContainerStore& store,
                                    const Recipe& recipe,
                                    const DiskModel& disk,
                                    const RestoreOptions& options,
                                    const RestoreSink& sink) {
  DiskSim sim(disk);
  RestoreResult res;
  switch (options.strategy) {
    case RestoreStrategy::kContainerLru:
      res = restore_container_lru(store, recipe, sim, options, sink);
      break;
    case RestoreStrategy::kChunkLru:
      res = restore_chunk_lru(store, recipe, sim, options, sink);
      break;
    case RestoreStrategy::kForwardAssembly:
      res = restore_forward_assembly(store, recipe, sim, options, sink);
      break;
  }
  DEFRAG_CHECK_MSG(res.logical_bytes == recipe.logical_bytes(),
                   "restore strategy byte accounting mismatch");
  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();
  return res;
}

RestoreResult restore_with_strategy(const ContainerStore& store,
                                    const Recipe& recipe,
                                    const DiskModel& disk,
                                    const RestoreOptions& options, Bytes* out) {
  RestoreSink append;
  if (out != nullptr) {
    append = [out](ByteView b) { out->insert(out->end(), b.begin(), b.end()); };
  }
  return restore_with_strategy(store, recipe, disk, options, append);
}

}  // namespace defrag
