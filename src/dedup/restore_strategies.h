// Restore strategies: how a recipe walk turns into disk reads.
//
// The engine's built-in restore uses a container-granularity LRU cache.
// This module adds the other two strategies the restore literature
// evaluates, so the read-performance experiments can show that DeFrag's
// layout improvement is orthogonal to (and compounds with) smarter restore
// buffering:
//
//  - kContainerLru     whole-container reads + LRU cache (DDFS default)
//  - kChunkLru         per-chunk reads + chunk-granularity LRU cache
//                      (one seek per cache-missing chunk: the worst case
//                      the paper's Fig. 1 arithmetic describes)
//  - kForwardAssembly  Lillibridge et al. (FAST'13): restore a fixed-size
//                      assembly area by scanning the recipe window and
//                      fetching each needed container exactly once per
//                      window, regardless of how its chunks interleave.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "dedup/engine.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

enum class RestoreStrategy { kContainerLru, kChunkLru, kForwardAssembly };

std::string to_string(RestoreStrategy s);

struct RestoreOptions {
  RestoreStrategy strategy = RestoreStrategy::kContainerLru;
  /// kContainerLru: cache capacity in containers.
  std::size_t cache_containers = 32;
  /// kChunkLru: cache capacity in bytes (chunk-granularity).
  std::uint64_t chunk_cache_bytes = 64ull << 20;
  /// kForwardAssembly: assembly area size in bytes.
  std::uint64_t assembly_bytes = 16ull << 20;
};

/// Receives the restored stream in recipe order, one chunk's bytes per
/// call. The view is valid only for the duration of the call.
using RestoreSink = std::function<void(ByteView)>;

/// Restore `recipe` from `store` under the given strategy, charging I/O to a
/// fresh DiskSim built from `disk`. When `sink` is non-empty it receives the
/// restored bytes as the walk produces them, so a caller can stream them out
/// through a bounded buffer; an empty sink runs the I/O model only.
RestoreResult restore_with_strategy(const ContainerStore& store,
                                    const Recipe& recipe,
                                    const DiskModel& disk,
                                    const RestoreOptions& options,
                                    const RestoreSink& sink);

/// Sink form that appends the restored bytes to `out` when it is non-null
/// (callers verify integrity).
RestoreResult restore_with_strategy(const ContainerStore& store,
                                    const Recipe& recipe,
                                    const DiskModel& disk,
                                    const RestoreOptions& options,
                                    Bytes* out);

}  // namespace defrag
