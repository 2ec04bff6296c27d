#include "dedup/chunk_prep.h"

#include <cstddef>
#include <cstdint>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/fingerprint.h"
#include "common/sha_mb.h"
#include "obs/metrics.h"

namespace defrag {

std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView data,
                                               bool hold_back_last) {
  std::vector<ChunkRef> refs;
  chunker.split_to(data, [&](const ChunkRef& r) { refs.push_back(r); });
  if (hold_back_last && !refs.empty()) refs.pop_back();

  std::vector<StreamChunk> chunks(refs.size());
  simd::FingerprintBatch batch;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    chunks[i] = StreamChunk{Fingerprint{}, refs[i].offset, refs[i].size};
    batch.add(data.subspan(refs[i].offset, refs[i].size), &chunks[i].fp);
  }
  batch.flush();

  // Histogram::observe() is single-threaded by contract: record into a
  // local shard and merge, which serializes under the registry's lock.
  obs::MetricsRegistry shard;
  auto& hist = shard.histogram("fingerprint.batch_size");
  for (const std::uint32_t s : batch.flush_sizes()) hist.observe(s);
  obs::MetricsRegistry::global().merge_from(shard);
  return chunks;
}

}  // namespace defrag
