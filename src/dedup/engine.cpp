#include "dedup/engine.h"

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "common/units.h"
#include "dedup/chunk_prep.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/disk_model.h"
#include "storage/lru_cache.h"
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

EngineBase::EngineBase(const EngineConfig& cfg)
    : cfg_(cfg),
      chunker_(make_chunker(cfg.chunker_kind, cfg.chunker)),
      segmenter_(cfg.segmenter),
      store_(cfg.container_bytes, cfg.compress_containers) {}

const std::string& EngineBase::metrics_prefix() {
  if (metrics_prefix_.empty()) {
    metrics_prefix_ = "engine." + obs::slug(name()) + ".";
  }
  return metrics_prefix_;
}

void EngineBase::record_backup_metrics(const BackupResult& res) {
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

std::vector<StreamChunk> EngineBase::prepare_chunks(ByteView stream) {
  const obs::TraceSpan span("prepare_chunks", "ingest");
  obs::ScopedTimer timer(
      obs::MetricsRegistry::global().histogram("stage.prepare_us"));
  return chunk_and_fingerprint(*chunker_, stream, /*hold_back_last=*/false);
}

void EngineBase::charge_compute(DiskSim& sim, std::uint64_t bytes) const {
  sim.compute(static_cast<double>(bytes) / 1e6 / cfg_.cpu_mb_per_s);
}

bool EngineBase::ground_truth_duplicate(const Fingerprint& fp) {
  return !seen_.insert(fp).second;
}

RestoreResult EngineBase::restore(std::uint32_t generation, Bytes* out) {
  const obs::TraceSpan span("restore", "restore");
  const Recipe& recipe = recipes_.get(generation);
  DiskSim sim(cfg_.disk);
  // Container-granularity read cache: turning spatial locality into fewer
  // seeks is exactly the effect under study.
  LruCache<ContainerId, char> cache(
      std::max<std::size_t>(1, cfg_.restore_cache_containers));

  RestoreResult res;
  res.generation = generation;
  if (out) out->reserve(out->size() + recipe.logical_bytes());

  for (const RecipeEntry& e : recipe.entries()) {
    const ChunkLocation& loc = e.location;
    if (cache.get(loc.container) == nullptr) {
      store_.load(loc.container, sim);  // seek + whole-container transfer
      cache.put(loc.container, 0);
      ++res.container_loads;
    }
    if (out) {
      const ByteView bytes = store_.peek(loc.container).read(loc);
      out->insert(out->end(), bytes.begin(), bytes.end());
    }
    res.logical_bytes += loc.size;
  }

  DEFRAG_CHECK_MSG(res.logical_bytes == recipe.logical_bytes(),
                   "restore byte accounting mismatch");
  res.cache_hit_rate = cache.hit_rate();
  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("storage.restore_cache.hits").add(cache.hits());
  reg.counter("storage.restore_cache.misses").add(cache.misses());
  reg.counter("storage.restore_cache.evictions").add(cache.evictions());
  reg.gauge("storage.restore_cache.last_hit_rate").set(res.cache_hit_rate);
  reg.histogram(metrics_prefix() + "restore_sim_ms")
      .observe(res.sim_seconds * 1e3);
  return res;
}

}  // namespace defrag
