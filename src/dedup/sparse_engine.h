// Sparse-Indexing engine: Lillibridge et al. (FAST'09), the other
// locality-exploiting baseline the paper's background names alongside DDFS.
//
// RAM holds only a *sparse* index: sampled fingerprints ("hooks", one in
// 2^sample_bits) mapping to the stored segments that contain them. An
// incoming segment's hooks vote for similar stored segments; the top-K
// "champions" have their full manifests loaded from disk (one seek each),
// and the segment deduplicates against those manifests only. Like SiLo it
// is near-exact: duplicates whose copies live outside the champions are
// missed and stored again.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunking/segmenter.h"
#include "common/fingerprint.h"
#include "dedup/engine.h"
#include "storage/container.h"

namespace defrag {

/// A stored segment's manifest: its chunk list with resolved locations,
/// resident on disk. Loading one costs a seek plus the metadata transfer.
struct SegmentManifest {
  SegmentId id = kInvalidSegment;
  std::vector<std::pair<Fingerprint, ChunkLocation>> entries;

  std::uint64_t metadata_bytes() const {
    return entries.size() * kContainerEntryBytes;
  }
};

struct SparseIndexingParams {
  /// A fingerprint is a hook when its low `sample_bits` bits are zero
  /// (expected one hook per 2^sample_bits chunks; FAST'09 uses 1/64).
  std::uint32_t sample_bits = 6;
  /// Champions loaded per incoming segment.
  std::size_t max_champions = 2;
  /// Segment ids retained per hook in the sparse index (newest first).
  std::size_t max_segments_per_hook = 4;
};

/// Per-backup telemetry.
struct SparseDecisionStats {
  std::uint64_t segments = 0;
  std::uint64_t segments_without_champion = 0;
  std::uint64_t manifests_loaded = 0;
  std::uint64_t hook_count = 0;
};

class SparseEngine : public DedupEngine {
 public:
  explicit SparseEngine(const EngineConfig& cfg,
                        const SparseIndexingParams& params = {});

  std::string name() const override { return "Sparse-Indexing"; }

  const SparseDecisionStats& last_decision_stats() const { return decisions_; }
  std::uint64_t sparse_index_entries() const { return hooks_.size(); }

 private:
  void place(Generation& gen) override;

  bool is_hook(const Fingerprint& fp) const {
    return (fp.prefix64() & ((1ull << params_.sample_bits) - 1)) == 0;
  }

  /// Rank stored segments by hook votes; return up to max_champions ids.
  std::vector<SegmentId> elect_champions(
      const std::vector<StreamChunk>& chunks, const SegmentRef& seg) const;

  SparseIndexingParams params_;
  // hook fingerprint -> stored segments containing it (newest first).
  std::unordered_map<Fingerprint, std::vector<SegmentId>> hooks_;
  // The on-disk manifest store, addressed by SegmentId.
  std::unordered_map<SegmentId, SegmentManifest> manifests_;
  SparseDecisionStats decisions_;
};

}  // namespace defrag
