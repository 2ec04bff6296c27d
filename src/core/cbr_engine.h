// CBR-Like engine: context-based rewriting in the style of Kaczmarczyk et
// al. (SYSTOR'12), the paper's reference [5] — the closest prior art to
// DeFrag's selective rewriting, included as an ablation baseline.
//
// Where DeFrag normalizes by the *incoming segment* (SPL = shared/segment),
// CBR normalizes by the *stored container*: a duplicate's container has
// high "rewrite utility" when the current stream context uses only a small
// fraction of it — reading 4 MB to restore 80 KB is a bad trade, so those
// duplicates are rewritten. CBR additionally caps rewritten bytes at a
// fixed budget (default 5%) of the stream, bounding the compression loss
// per backup regardless of how fragmented the stream is.
//
// Apart from that verdict and the budget, CBR runs exactly DeFrag's
// placement: the two-pass loop in DdfsEngine::place_with_rewrites.
#pragma once

#include <cstdint>
#include <string>

#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"

namespace defrag {

struct CbrParams {
  /// Rewrite duplicates whose container's in-context utilization
  /// (context bytes found in it / container data bytes) is below this.
  double utilization_threshold = 0.05;
  /// Maximum fraction of the stream's bytes that may be rewritten.
  double rewrite_budget = 0.05;
};

class CbrEngine final : public DdfsEngine {
 public:
  explicit CbrEngine(const EngineConfig& cfg, const CbrParams& params = {});

  std::string name() const override { return "CBR-Like"; }

  const CbrParams& params() const { return params_; }

 private:
  /// Run the shared rewrite loop with the utilization verdict and the
  /// stream's rewrite budget.
  void place(Generation& gen) override;

  CbrParams params_;
};

}  // namespace defrag
