#include "core/dedup_system.h"

#include "common/check.h"
#include "core/cbr_engine.h"
#include "core/defrag_engine.h"
#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"
#include "dedup/silo_engine.h"
#include "dedup/sparse_engine.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "storage/catalog.h"
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
  const auto entry = catalog_.get(generation).find(path);
  DEFRAG_CHECK_MSG(entry.has_value(), "unknown file path in catalog");
  return ::defrag::restore_file(engine_->container_store(),
                                engine_->recipe_store().get(generation), *entry,
                                engine_->config().disk, out,
                                engine_->config().restore_cache_containers);
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
