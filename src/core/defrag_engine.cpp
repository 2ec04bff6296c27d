#include "core/defrag_engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "chunking/segmenter.h"
#include "common/check.h"
#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"
#include "obs/metrics.h"

namespace defrag {

DefragEngine::DefragEngine(const EngineConfig& cfg) : DdfsEngine(cfg) {
  DEFRAG_CHECK_MSG(cfg.defrag_alpha >= 0.0, "alpha must be non-negative");
}

void DefragEngine::place(Generation& gen) {
  // SPL decision telemetry, resolved once per backup: the distribution of
  // per-bin SPL values and of their margin against alpha (both in permille,
  // so the log2 buckets resolve the [0, 1] range), plus bin verdict totals.
  auto& reg = obs::MetricsRegistry::global();
  const std::string& prefix = metrics_prefix();
  obs::Histogram& spl_hist = reg.histogram(prefix + "spl_permille");
  obs::Histogram& margin_hist = reg.histogram(prefix + "alpha_margin_permille");
  decisions_ = DefragDecisionStats{};

  // FGDEFRAG-style grouping: merge every `defrag_group_segments` consecutive
  // segments into one SPL decision unit (width 1 = the paper's DeFrag).
  const std::vector<SegmentRef>& raw_segments = gen.segments;
  std::vector<SegmentRef> segments;
  const std::size_t width = std::max<std::size_t>(1, cfg_.defrag_group_segments);
  segments.reserve(raw_segments.size() / width + 1);
  for (std::size_t s = 0; s < raw_segments.size(); s += width) {
    SegmentRef merged = raw_segments[s];
    const std::size_t end = std::min(raw_segments.size(), s + width);
    for (std::size_t t = s + 1; t < end; ++t) {
      merged.last = raw_segments[t].last;
      merged.bytes += raw_segments[t].bytes;
    }
    segments.push_back(merged);
  }

  // SPL per (m, k) bin (paper Eq. 2): the fraction of segment m
  // retrievable with the single seek that fetches placement unit k.
  const auto spl_verdict = [&](const SegmentRef& seg, Bins& bins) {
    const auto seg_chunks = static_cast<double>(seg.chunk_count());
    if (!bins.empty()) ++decisions_.segments_with_dups;
    for (auto& [k, bin] : bins) {
      const double spl = static_cast<double>(bin.chunks) / seg_chunks;
      bin.rewrite = !bin.fresh && spl < cfg_.defrag_alpha;
      ++decisions_.bins_total;
      decisions_.spl_sum += spl;
      if (bin.rewrite) ++decisions_.bins_rewritten;
      spl_hist.observe(spl * 1000.0);
      margin_hist.observe((spl - cfg_.defrag_alpha) * 1000.0);
    }
  };
  place_with_rewrites(gen, segments, spl_verdict,
                      std::numeric_limits<std::uint64_t>::max());

  reg.counter(prefix + "spl_bins").add(decisions_.bins_total);
  reg.counter(prefix + "rewrite_bins").add(decisions_.bins_rewritten);
  reg.counter(prefix + "segments_with_dups").add(decisions_.segments_with_dups);
}

}  // namespace defrag
