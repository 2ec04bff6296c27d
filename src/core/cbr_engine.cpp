#include "core/cbr_engine.h"

#include <cstdint>
#include <string>

#include "chunking/segmenter.h"
#include "common/check.h"
#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace defrag {

CbrEngine::CbrEngine(const EngineConfig& cfg, const CbrParams& params)
    : DdfsEngine(cfg), params_(params) {
  DEFRAG_CHECK(params_.utilization_threshold >= 0.0);
  DEFRAG_CHECK(params_.rewrite_budget >= 0.0);
}

void CbrEngine::place(Generation& gen) {
  std::uint64_t contexts_seen = 0;
  std::uint64_t contexts_rewritten = 0;
  // Rewrite decision per referenced container: utilization (context bytes
  // found in it over its data bytes) below the threshold marks its
  // duplicates for rewriting, budget permitting.
  const auto utilization_verdict = [&](const SegmentRef&, Bins& bins) {
    for (auto& [cid, bin] : bins) {
      const double utilization =
          static_cast<double>(bin.bytes) /
          static_cast<double>(store_.peek(cid).data_bytes());
      bin.rewrite = !bin.fresh && utilization < params_.utilization_threshold;
      ++contexts_seen;
      if (bin.rewrite) ++contexts_rewritten;
    }
  };
  const auto budget_bytes = static_cast<std::uint64_t>(
      static_cast<double>(gen.stream.size()) * params_.rewrite_budget);
  place_with_rewrites(gen, gen.segments, utilization_verdict, budget_bytes);

  auto& reg = obs::MetricsRegistry::global();
  const std::string& p = metrics_prefix();
  reg.counter(p + "context_containers").add(contexts_seen);
  reg.counter(p + "rewrite_containers").add(contexts_rewritten);
}

}  // namespace defrag
