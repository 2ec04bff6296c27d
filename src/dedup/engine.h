// Deduplication engine skeleton shared by every engine in this library.
//
// An engine ingests backup streams generation by generation, placing unique
// (and, for DeFrag and CBR, selectively rewritten duplicate) chunks into the
// shared container store, and records a recipe per generation for restore.
// All I/O costs are charged to a per-phase DiskSim, so every BackupResult /
// RestoreResult carries its own simulated time and operation counts.
//
// Time model (documented per DESIGN.md):
//  - chunking + fingerprinting CPU is charged at cfg.cpu_mb_per_s;
//  - blocking I/O (index page reads, container metadata prefetches, block
//    loads, restore container reads) charges seek + transfer;
//  - sequential data/log writes are assumed overlapped with compute
//    (write-behind) — they are *counted* in IoStats but do not add time.
//    This matches how DDFS-era systems hide container writes behind NVRAM.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/fingerprint.h"
#include "index/paged_index.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

struct EngineConfig {
  ChunkerKind chunker_kind = ChunkerKind::kGear;
  ChunkerParams chunker;
  SegmenterParams segmenter;
  std::uint64_t container_bytes = 4ull << 20;
  /// DDFS-style local LZSS compression of sealed containers. Off by
  /// default: it only pays on compressible content (see
  /// workload::FsParams::text_fraction).
  bool compress_containers = false;
  DiskModel disk;
  PagedIndexParams index;

  /// Combined chunking+fingerprinting rate used to charge CPU time.
  double cpu_mb_per_s = 220.0;

  /// DDFS locality-preserved cache: containers whose fingerprint metadata is
  /// held in RAM.
  std::size_t metadata_cache_containers = 64;

  /// Restore-side container data cache (containers).
  std::size_t restore_cache_containers = 32;

  /// SiLo: segments per block, block cache capacity (blocks), and how many
  /// representative fingerprints are probed per incoming segment.
  std::size_t silo_segments_per_block = 8;
  std::size_t silo_block_cache_blocks = 16;
  std::size_t silo_probe_reps = 1;

  /// SiLo: probability that a sealed block (re)registers a segment's
  /// representative in the RAM similarity index. 1.0 = every seal refreshes
  /// (idealized unbounded SHTable). Below 1.0 emulates the RAM-bounded
  /// index of a large deployment: a segment's entry refreshes only every
  /// ~1/rate backups, so probes resolve to *older* blocks whose recipes lag
  /// the segment's churn — the duplicate-locality decay the paper measures.
  double silo_index_sample_rate = 1.0;

  /// DeFrag: rewrite duplicates shared with a stored segment when the
  /// spatial locality level against that segment is below alpha.
  double defrag_alpha = 0.1;

  /// DeFrag: SPL decision-group width in segments. 1 = the paper's design
  /// (one decision per 0.5-2 MB segment). Larger groups evaluate SPL over
  /// several consecutive segments at once — a lightweight take on the
  /// authors' follow-up FGDEFRAG, which reasons about variable-sized groups
  /// of logically adjacent duplicates. Wider groups tolerate duplicates
  /// that straddle segment boundaries (fewer spurious rewrites) at the cost
  /// of coarser decisions.
  std::size_t defrag_group_segments = 1;
};

/// Metrics of one ingested backup generation.
struct BackupResult {
  std::uint32_t generation = 0;
  std::uint64_t logical_bytes = 0;    // stream size
  std::uint64_t chunk_count = 0;
  std::uint64_t segment_count = 0;

  std::uint64_t unique_bytes = 0;     // truly-new data written
  std::uint64_t removed_bytes = 0;    // redundant data deduplicated away
  std::uint64_t rewritten_bytes = 0;  // duplicates intentionally rewritten
  std::uint64_t missed_dup_bytes = 0; // duplicates written because the
                                      // engine failed to detect them
  std::uint64_t redundant_bytes = 0;  // ground truth: total duplicate bytes

  IoStats io;
  double sim_seconds = 0.0;

  /// Deduplication throughput as the paper reports it: stream MB over
  /// simulated seconds.
  double throughput_mb_s() const;

  /// Paper definition (§IV-B): redundant data removed over redundant data
  /// present. 1.0 = exact dedup.
  double dedup_efficiency() const;

  /// Physical bytes this generation added to the store.
  std::uint64_t stored_bytes() const {
    return unique_bytes + rewritten_bytes + missed_dup_bytes;
  }
};

/// Metrics of one restored backup generation.
struct RestoreResult {
  std::uint32_t generation = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t container_loads = 0;
  double cache_hit_rate = 0.0;
  IoStats io;
  double sim_seconds = 0.0;

  double read_mb_s() const;
};

/// The engine skeleton every deduplication scheme in this library shares:
/// chunk preparation, container store, recipes, ground-truth accounting,
/// the per-generation backup frame and the restore path.
///
/// backup() owns the frame — trace span, DiskSim, chunking and
/// fingerprinting (CPU charged at cfg.cpu_mb_per_s), segmentation, recipe
/// creation, the final store flush and the per-generation metrics — and
/// hands the prepared generation to one virtual hook, place(), where each
/// scheme makes its placement decisions. DDFS, SiLo and Sparse Indexing
/// each run their own single-pass loop there; DeFrag and CBR share the
/// two-pass selective-rewrite loop of DdfsEngine (ddfs_engine.h).
class DedupEngine {
 public:
  explicit DedupEngine(const EngineConfig& cfg);
  virtual ~DedupEngine() = default;

  virtual std::string name() const = 0;

  /// Ingest one backup stream as `generation` (must be new and increasing).
  BackupResult backup(std::uint32_t generation, ByteView stream);

  /// Reconstruct a generation through the container-LRU restore strategy
  /// (cfg.restore_cache_containers). When `out` is non-null the restored
  /// bytes are appended to it (integrity checks); either way the I/O is
  /// simulated.
  RestoreResult restore(std::uint32_t generation, Bytes* out);

  const EngineConfig& config() const { return cfg_; }
  const ContainerStore& container_store() const { return store_; }
  const RecipeStore& recipe_store() const { return recipes_; }

  /// Raw (post-dedup, pre-local-compression) bytes stored so far.
  std::uint64_t stored_data_bytes() const { return store_.total_data_bytes(); }

  /// Physical on-disk bytes (after local compression, when enabled).
  std::uint64_t stored_physical_bytes() const {
    return store_.total_stored_bytes();
  }

 protected:
  /// One generation inside backup(): the stream, its fingerprinted chunks
  /// and segments, the recipe being built, the DiskSim every I/O is charged
  /// to, and the result whose byte counters place() fills in.
  struct Generation {
    ByteView stream;
    const std::vector<StreamChunk>& chunks;
    const std::vector<SegmentRef>& segments;
    Recipe& recipe;
    DiskSim& sim;
    BackupResult& res;
  };

  /// Placement hook, called once per backup() after the recipe is created
  /// and before the store is flushed: resolve every chunk of `gen` to a
  /// stored location, add it to the recipe in stream order, and attribute
  /// its bytes (unique / removed / rewritten / missed, plus ground-truth
  /// redundant). Scheme-specific per-backup metrics are published here too.
  virtual void place(Generation& gen) = 0;

  /// Ground truth: true iff this fingerprint was seen in any earlier chunk
  /// (across all generations and earlier in this stream). Records it.
  bool ground_truth_duplicate(const Fingerprint& fp);

  SegmentId allocate_segment_id() { return next_segment_id_++; }

  /// "engine.<slug>." — the metric-name prefix of this engine, derived from
  /// name() on first use (so derived engines report under their own slug).
  const std::string& metrics_prefix();

  EngineConfig cfg_;
  std::unique_ptr<Chunker> chunker_;
  Segmenter segmenter_;
  ContainerStore store_;
  RecipeStore recipes_;

 private:
  /// Chunk the stream and fingerprint every chunk (chunk_and_fingerprint
  /// under the prepare_chunks span and stage.prepare_us timer).
  std::vector<StreamChunk> prepare_chunks(ByteView stream);

  /// Publish one generation's result into the process-wide MetricsRegistry
  /// under metrics_prefix(): byte/chunk/segment counters, I/O counters, a
  /// sim-time histogram and a last-throughput gauge.
  void record_backup_metrics(const BackupResult& res);

  std::unordered_set<Fingerprint> seen_;
  SegmentId next_segment_id_ = 0;
  std::string metrics_prefix_;
};

/// Which engine to build.
///  kDdfs    exact dedup, Bloom + full index + locality caching (FAST'08)
///  kSilo    similarity-locality near-exact dedup (ATC'11)
///  kSparse  sparse indexing with champion segments (FAST'09)
///  kDefrag  the paper's contribution: SPL-driven selective rewriting
///  kCbr     context-based rewriting baseline (SYSTOR'12, paper ref. [5])
enum class EngineKind { kDdfs, kSilo, kSparse, kDefrag, kCbr };

std::string to_string(EngineKind kind);

/// Factory (implemented in core/, which owns the DeFrag engine).
std::unique_ptr<DedupEngine> make_engine(EngineKind kind,
                                         const EngineConfig& cfg);

}  // namespace defrag
