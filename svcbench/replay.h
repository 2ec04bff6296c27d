// The traced per-layer replay: the service pass's rounds fed again, with the
// same streams, through each layer's public functions instead of the daemon.
#pragma once

#include <cstdint>

#include "bench.h"

namespace svcbench {

/// Busy time and work counts summed over every replayed request.
struct LayerTotals {
  // Backup side, per stream: Chunker::split_to, FingerprintBatch,
  // ShardedPagedIndex::lookup_or_claim + publish (and pending resolution),
  // StreamAppender::append + close, TenantCatalog::commit, and the
  // production ParallelIngestor::ingest_stream on the same stream.
  double chunk_s = 0.0;
  double fingerprint_s = 0.0;
  double index_s = 0.0;
  double append_s = 0.0;
  double catalog_s = 0.0;
  double ingest_stream_s = 0.0;
  std::uint64_t streams = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t chunks = 0;
  std::uint64_t index_hits = 0;     // kExisting
  std::uint64_t index_pending = 0;  // kPending
  std::uint64_t appends = 0;        // kClaimed
  std::uint64_t seals = 0;          // containers sealed
  std::uint64_t page_hits = 0;      // index page cache
  std::uint64_t page_faults = 0;
  // Restore side: ContainerStore::wait_sealed, restore_with_strategy.
  double wait_sealed_s = 0.0;
  double restore_s = 0.0;
  std::uint64_t restores = 0;
  std::uint64_t restored_bytes = 0;
  std::uint64_t container_loads = 0;
  double cache_hits = 0.0;  // restore cache hit rate x recipe entries
  std::uint64_t recipe_entries = 0;
  Tally tally;

  LayerTotals& operator+=(const LayerTotals& o);
};

/// Replay rounds 0 .. rounds-1 of `w` (the inputs the service pass used for
/// the same seed). Spans go to the global TraceRecorder when it is enabled.
LayerTotals run_replay(Workload w, std::uint64_t seed, std::uint64_t rounds);

}  // namespace svcbench
