// DeFrag: the paper's contribution. Selective deduplication driven by the
// Spatial Locality Level (SPL).
//
// DeFrag is "implemented based on the deduplication approaches proposed in
// DDFS" (paper §IV), so it derives from DdfsEngine and reuses its exact
// classification machinery (Bloom filter, paged index, locality-preserved
// caching). What it adds is the placement decision:
//
//   For each incoming segment m, bin the duplicate chunks by the stored
//   placement unit k holding their existing copy, and compute
//       SPL(m, k) = |Seg_m ∩ Seg_k| / |Seg_m|                (paper Eq. 2)
//   If SPL(m, k) < alpha, the chunks shared with k are NOT deduplicated:
//   they are rewritten sequentially next to the segment's new unique chunks.
//
// The paper defines Seg_k as a stored segment "which can be fetched together
// by one disk seek". In this library the unit one seek fetches is the
// container, so bins are keyed by the container of the existing copy — the
// SPL formula is unchanged, the placement unit matches the I/O model.
// Duplicates whose copy was written by the *current* backup are always kept:
// they are already co-located with the stream.
//
// The two-pass loop that classifies, bins and emits is DdfsEngine's
// place_with_rewrites, shared with CBR; this engine contributes the SPL
// verdict per bin and the FGDEFRAG grouping of segments that runs first.
//
// Rewriting low-SPL duplicates keeps a segment's chunks co-located, so
//  - future metadata prefetches cover more of the stream (throughput),
//  - restores touch fewer containers (read bandwidth),
// at the cost of the rewritten bytes (compression). alpha trades these off;
// the paper evaluates alpha = 0.1.
#pragma once

#include <cstdint>
#include <string>

#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"

namespace defrag {

/// Per-backup DeFrag-specific telemetry, kept by the engine for ablation
/// benches (segment SPL distribution and rewrite decisions).
struct DefragDecisionStats {
  std::uint64_t segments_with_dups = 0;
  std::uint64_t bins_total = 0;      // (m,k) pairs examined
  std::uint64_t bins_rewritten = 0;  // pairs with SPL < alpha
  double spl_sum = 0.0;              // for mean SPL over bins

  double mean_spl() const {
    return bins_total == 0 ? 0.0 : spl_sum / static_cast<double>(bins_total);
  }
  double rewrite_bin_fraction() const {
    return bins_total == 0
               ? 0.0
               : static_cast<double>(bins_rewritten) /
                     static_cast<double>(bins_total);
  }
};

class DefragEngine final : public DdfsEngine {
 public:
  explicit DefragEngine(const EngineConfig& cfg);

  std::string name() const override { return "DeFrag"; }

  double alpha() const { return config().defrag_alpha; }
  const DefragDecisionStats& last_decision_stats() const {
    return decisions_;
  }

 private:
  /// Group the segments (FGDEFRAG width) and run the shared rewrite loop
  /// with the SPL verdict.
  void place(Generation& gen) override;

  DefragDecisionStats decisions_;
};

}  // namespace defrag
