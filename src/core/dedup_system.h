// Public facade: the one header example applications need.
//
//   DedupSystem sys(EngineKind::kDefrag, config);
//   auto r = sys.ingest(stream_bytes);        // one backup generation
//   auto restored = sys.restore_verified(r.generation);
//
// The facade owns an engine, tracks cumulative accounting across
// generations, and offers integrity-checked restore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dedup/engine.h"
#include "storage/catalog.h"
#include "storage/disk_model.h"
#include "workload/backup_series.h"

namespace defrag {

/// One file's restore, with its I/O charged to a fresh sim.
struct FileRestoreResult {
  std::uint64_t file_bytes = 0;
  std::uint64_t container_loads = 0;  // = the file's fragment count, cold
  IoStats io;
  double sim_seconds = 0.0;
};

class DedupSystem {
 public:
  DedupSystem(EngineKind kind, const EngineConfig& cfg = {});

  /// Ingest the next backup generation (generations auto-number from 1).
  BackupResult ingest(ByteView stream);

  /// Ingest under an explicit generation number (must be fresh).
  BackupResult ingest_as(std::uint32_t generation, ByteView stream);

  /// Ingest a workload backup *with its file table*, enabling
  /// restore_file() for this generation.
  BackupResult ingest_backup(const workload::Backup& backup);

  /// Restore one file of a cataloged generation. Walks only the recipe
  /// entries overlapping the file's stream range, through the same
  /// container-LRU restore as restore() — the single-file counterpart of
  /// the paper's Fig. 1 arithmetic. Appends the file's bytes to `out` when
  /// it is non-null. Throws if the generation was ingested without a file
  /// table or the path is unknown.
  FileRestoreResult restore_file(std::uint32_t generation,
                                 const std::string& path,
                                 Bytes* out = nullptr);

  const Catalog& catalog() const { return catalog_; }

  /// Simulate a restore; bytes are discarded.
  RestoreResult restore(std::uint32_t generation);

  /// Restore and return the reconstructed bytes.
  Bytes restore_bytes(std::uint32_t generation, RestoreResult* result = nullptr);

  DedupEngine& engine() { return *engine_; }
  const DedupEngine& engine() const { return *engine_; }
  EngineKind kind() const { return kind_; }

  /// All per-generation results so far, in ingest order.
  const std::vector<BackupResult>& history() const { return history_; }

  /// Cumulative logical bytes ingested across generations.
  std::uint64_t logical_bytes_ingested() const { return logical_ingested_; }

  /// Physical bytes currently stored.
  std::uint64_t stored_bytes() const;

  /// Compression ratio: logical ingested / physical stored (>= 1).
  double compression_ratio() const;

  /// Fraction of truly-redundant bytes eliminated so far (exact dedup = 1).
  double cumulative_dedup_efficiency() const;

 private:
  EngineKind kind_;
  std::unique_ptr<DedupEngine> engine_;
  Catalog catalog_;
  std::vector<BackupResult> history_;
  std::uint64_t logical_ingested_ = 0;
  std::uint32_t next_generation_ = 1;
};

}  // namespace defrag
