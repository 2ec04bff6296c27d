#include "core/dedup_system.h"

#include <algorithm>

#include "common/check.h"
#include "core/cbr_engine.h"
#include "core/defrag_engine.h"
#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"
#include "dedup/restore_strategies.h"
#include "dedup/silo_engine.h"
#include "dedup/sparse_engine.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/recipe.h"
#include "workload/backup_series.h"

namespace defrag {

std::unique_ptr<DedupEngine> make_engine(EngineKind kind,
                                         const EngineConfig& cfg) {
  switch (kind) {
    case EngineKind::kDdfs:
      return std::make_unique<DdfsEngine>(cfg);
    case EngineKind::kSilo:
      return std::make_unique<SiloEngine>(cfg);
    case EngineKind::kSparse:
      return std::make_unique<SparseEngine>(cfg);
    case EngineKind::kDefrag:
      return std::make_unique<DefragEngine>(cfg);
    case EngineKind::kCbr:
      return std::make_unique<CbrEngine>(cfg);
  }
  DEFRAG_CHECK_MSG(false, "unknown EngineKind");
  return nullptr;
}

DedupSystem::DedupSystem(EngineKind kind, const EngineConfig& cfg)
    : kind_(kind), engine_(make_engine(kind, cfg)) {}

BackupResult DedupSystem::ingest(ByteView stream) {
  return ingest_as(next_generation_, stream);
}

BackupResult DedupSystem::ingest_as(std::uint32_t generation,
                                    ByteView stream) {
  const obs::TraceSpan span("ingest g" + std::to_string(generation), "system");
  obs::ScopedTimer timer(
      obs::MetricsRegistry::global().histogram("system.ingest_wall_us"));
  BackupResult res = engine_->backup(generation, stream);
  history_.push_back(res);
  logical_ingested_ += res.logical_bytes;
  next_generation_ = std::max(next_generation_, generation) + 1;
  return res;
}

BackupResult DedupSystem::ingest_backup(const workload::Backup& backup) {
  GenerationCatalog& gen_catalog = catalog_.create(backup.generation);
  for (const auto& f : backup.files) {
    gen_catalog.add(f.path, f.stream_offset, f.size);
  }
  return ingest_as(backup.generation, backup.stream);
}

FileRestoreResult DedupSystem::restore_file(std::uint32_t generation,
                                            const std::string& path,
                                            Bytes* out) {
  const auto file = catalog_.get(generation).find(path);
  DEFRAG_CHECK_MSG(file.has_value(), "unknown file path in catalog");
  const std::uint64_t file_begin = file->stream_offset;
  const std::uint64_t file_end = file->stream_offset + file->size;

  // The recipe entries overlapping the file's range. Files need not align
  // with CDC boundaries, so the first and last chunk may stick out of it.
  FileRestoreResult res;
  Recipe span;
  std::uint64_t span_begin = 0;  // stream offset of span's first chunk
  std::uint64_t pos = 0;         // stream offset of the current chunk
  for (const RecipeEntry& e :
       engine_->recipe_store().get(generation).entries()) {
    const std::uint64_t entry_begin = pos;
    pos += e.location.size;
    if (pos <= file_begin) continue;
    if (entry_begin >= file_end) break;  // the recipe is in stream order
    if (span.entries().empty()) span_begin = entry_begin;
    span.add(e.fp, e.location);
    res.file_bytes +=
        std::min(pos, file_end) - std::max(entry_begin, file_begin);
  }
  DEFRAG_CHECK_MSG(res.file_bytes == file->size,
                   "file restore byte accounting mismatch");

  RestoreSink clip;
  if (out != nullptr) {
    out->reserve(out->size() + file->size);
    clip = [out, file_begin, file_end,
            chunk_begin = span_begin](ByteView chunk) mutable {
      const std::uint64_t chunk_end = chunk_begin + chunk.size();
      const auto skip = static_cast<std::ptrdiff_t>(
          std::max(chunk_begin, file_begin) - chunk_begin);
      const auto stop = static_cast<std::ptrdiff_t>(
          std::min(chunk_end, file_end) - chunk_begin);
      out->insert(out->end(), chunk.begin() + skip, chunk.begin() + stop);
      chunk_begin = chunk_end;
    };
  }
  RestoreOptions options;
  options.strategy = RestoreStrategy::kContainerLru;
  options.cache_containers = engine_->config().restore_cache_containers;
  const RestoreResult r = restore_with_strategy(
      engine_->container_store(), span, engine_->config().disk, options, clip);
  res.container_loads = r.container_loads;
  res.io = r.io;
  res.sim_seconds = r.sim_seconds;
  return res;
}

RestoreResult DedupSystem::restore(std::uint32_t generation) {
  const obs::TraceSpan span("restore g" + std::to_string(generation), "system");
  obs::ScopedTimer timer(
      obs::MetricsRegistry::global().histogram("system.restore_wall_us"));
  return engine_->restore(generation, nullptr);
}

Bytes DedupSystem::restore_bytes(std::uint32_t generation,
                                 RestoreResult* result) {
  Bytes out;
  RestoreResult r = engine_->restore(generation, &out);
  if (result) *result = r;
  return out;
}

std::uint64_t DedupSystem::stored_bytes() const {
  // Physical bytes: identical to the raw post-dedup bytes unless container
  // compression is on, in which case the local-compression savings show
  // here too.
  return engine_->stored_physical_bytes();
}

double DedupSystem::compression_ratio() const {
  const std::uint64_t stored = stored_bytes();
  if (stored == 0) return 1.0;
  return static_cast<double>(logical_ingested_) / static_cast<double>(stored);
}

double DedupSystem::cumulative_dedup_efficiency() const {
  std::uint64_t removed = 0;
  std::uint64_t redundant = 0;
  for (const auto& r : history_) {
    removed += r.removed_bytes;
    redundant += r.redundant_bytes;
  }
  if (redundant == 0) return 1.0;
  return static_cast<double>(removed) / static_cast<double>(redundant);
}

}  // namespace defrag
