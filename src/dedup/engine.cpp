#include "dedup/engine.h"

#include <algorithm>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/fingerprint.h"
#include "common/units.h"
#include "dedup/chunk_prep.h"
#include "dedup/restore_strategies.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

double BackupResult::throughput_mb_s() const {
  return mb_per_sec(logical_bytes, sim_seconds);
}

double BackupResult::dedup_efficiency() const {
  if (redundant_bytes == 0) return 1.0;
  return static_cast<double>(removed_bytes) /
         static_cast<double>(redundant_bytes);
}

double RestoreResult::read_mb_s() const {
  return mb_per_sec(logical_bytes, sim_seconds);
}

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kDdfs:
      return "DDFS-Like";
    case EngineKind::kSilo:
      return "SiLo-Like";
    case EngineKind::kSparse:
      return "Sparse-Indexing";
    case EngineKind::kDefrag:
      return "DeFrag";
    case EngineKind::kCbr:
      return "CBR-Like";
  }
  return "unknown";
}

DedupEngine::DedupEngine(const EngineConfig& cfg)
    : cfg_(cfg),
      chunker_(make_chunker(cfg.chunker_kind, cfg.chunker)),
      segmenter_(cfg.segmenter),
      store_(cfg.container_bytes, cfg.compress_containers) {}

const std::string& DedupEngine::metrics_prefix() {
  if (metrics_prefix_.empty()) {
    metrics_prefix_ = "engine." + obs::slug(name()) + ".";
  }
  return metrics_prefix_;
}

void DedupEngine::record_backup_metrics(const BackupResult& res) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string& p = metrics_prefix();
  reg.counter(p + "backups").add(1);
  reg.counter(p + "logical_bytes").add(res.logical_bytes);
  reg.counter(p + "chunks").add(res.chunk_count);
  reg.counter(p + "segments").add(res.segment_count);
  reg.counter(p + "unique_bytes").add(res.unique_bytes);
  reg.counter(p + "removed_bytes").add(res.removed_bytes);
  reg.counter(p + "rewritten_bytes").add(res.rewritten_bytes);
  reg.counter(p + "missed_dup_bytes").add(res.missed_dup_bytes);
  reg.counter(p + "redundant_bytes").add(res.redundant_bytes);
  reg.counter(p + "io_seeks").add(res.io.seeks);
  reg.counter(p + "io_bytes_read").add(res.io.bytes_read);
  reg.counter(p + "io_bytes_written").add(res.io.bytes_written);
  reg.histogram(p + "backup_sim_ms").observe(res.sim_seconds * 1e3);
  reg.gauge(p + "last_throughput_mb_s").set(res.throughput_mb_s());
  // Store-wide state worth reading alongside the per-generation counters.
  reg.gauge("storage.container.count")
      .set(static_cast<double>(store_.container_count()));
  reg.gauge("storage.container.data_bytes")
      .set(static_cast<double>(store_.total_data_bytes()));
}

std::vector<StreamChunk> DedupEngine::prepare_chunks(ByteView stream) {
  const obs::TraceSpan span("prepare_chunks", "ingest");
  obs::ScopedTimer timer(
      obs::MetricsRegistry::global().histogram("stage.prepare_us"));
  return chunk_and_fingerprint(*chunker_, stream, /*hold_back_last=*/false);
}

bool DedupEngine::ground_truth_duplicate(const Fingerprint& fp) {
  return !seen_.insert(fp).second;
}

BackupResult DedupEngine::backup(std::uint32_t generation, ByteView stream) {
  const obs::TraceSpan span("backup", "engine");
  DiskSim sim(cfg_.disk);
  BackupResult res;
  res.generation = generation;
  res.logical_bytes = stream.size();

  const std::vector<StreamChunk> chunks = prepare_chunks(stream);
  sim.compute(static_cast<double>(stream.size()) / 1e6 / cfg_.cpu_mb_per_s);
  res.chunk_count = chunks.size();

  const std::vector<SegmentRef> segments = segmenter_.segment(chunks);
  res.segment_count = segments.size();

  Generation gen{stream, chunks, segments,
                 recipes_.create(generation, name()), sim, res};
  place(gen);
  store_.flush();

  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();
  record_backup_metrics(res);
  return res;
}

RestoreResult DedupEngine::restore(std::uint32_t generation, Bytes* out) {
  const obs::TraceSpan span("restore", "restore");
  const Recipe& recipe = recipes_.get(generation);
  if (out) out->reserve(out->size() + recipe.logical_bytes());
  // Container-granularity read cache: turning spatial locality into fewer
  // seeks is exactly the effect under study.
  RestoreOptions options;
  options.strategy = RestoreStrategy::kContainerLru;
  options.cache_containers = cfg_.restore_cache_containers;
  RestoreResult res =
      restore_with_strategy(store_, recipe, cfg_.disk, options, out);
  res.generation = generation;

  // The LRU inserts only on a miss, so its counters follow from the result:
  // every container load is a miss, every other recipe entry a hit, and
  // every miss past the capacity evicts.
  const std::uint64_t misses = res.container_loads;
  const std::uint64_t capacity =
      std::max<std::size_t>(1, cfg_.restore_cache_containers);
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("storage.restore_cache.hits")
      .add(recipe.entries().size() - misses);
  reg.counter("storage.restore_cache.misses").add(misses);
  reg.counter("storage.restore_cache.evictions")
      .add(misses > capacity ? misses - capacity : 0);
  reg.gauge("storage.restore_cache.last_hit_rate").set(res.cache_hit_rate);
  reg.histogram(metrics_prefix() + "restore_sim_ms")
      .observe(res.sim_seconds * 1e3);
  return res;
}

}  // namespace defrag
