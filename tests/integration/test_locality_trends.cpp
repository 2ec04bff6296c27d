// The paper's central empirical claims, verified as trends at test scale:
//  - de-linearization grows with generations (fragments per recipe rise),
//  - DDFS throughput decays with generations (Fig. 2's shape),
//  - DeFrag keeps recipes less fragmented than DDFS (Fig. 6's cause).
#include <gtest/gtest.h>

#include <numeric>

#include "core/dedup_system.h"
#include "testing/engine_config.h"
#include "workload/backup_series.h"

namespace defrag {
namespace {

workload::FsParams churny_fs() {
  workload::FsParams p;
  p.initial_files = 24;
  p.mean_file_bytes = 64 * 1024;
  p.mean_extent_bytes = 8 * 1024;
  p.mutation.file_modify_prob = 0.5;  // brisk churn to speed up the trend
  return p;
}

double mean(const std::vector<double>& v, std::size_t from, std::size_t to) {
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                         v.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

TEST(LocalityTrendsTest, FragmentationGrowsWithGenerations) {
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  workload::SingleUserSeries series(808, churny_fs());

  std::vector<double> switches_per_mb;
  constexpr std::uint32_t kGens = 10;
  for (std::uint32_t g = 1; g <= kGens; ++g) {
    sys.ingest_as(g, series.next().stream);
    const Recipe& r = sys.engine().recipe_store().get(g);
    switches_per_mb.push_back(
        static_cast<double>(r.container_switches()) /
        (static_cast<double>(r.logical_bytes()) / 1e6));
  }
  // Later generations must be visibly more fragmented than early ones.
  EXPECT_GT(mean(switches_per_mb, kGens - 3, kGens),
            mean(switches_per_mb, 1, 4));
}

TEST(LocalityTrendsTest, DdfsThroughputDecays) {
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  workload::SingleUserSeries series(809, churny_fs());

  std::vector<double> throughput;
  constexpr std::uint32_t kGens = 10;
  for (std::uint32_t g = 1; g <= kGens; ++g) {
    throughput.push_back(sys.ingest_as(g, series.next().stream).throughput_mb_s());
  }
  // Fig. 2's shape: later generations slower than the first ones. Skip
  // generation 1 (all-unique, no lookups at all).
  EXPECT_LT(mean(throughput, kGens - 3, kGens), mean(throughput, 1, 4));
}

TEST(LocalityTrendsTest, DefragRestoresWithFewerContainerLoads) {
  // Note the metric: what a restore *pays* is container loads through the
  // LRU read cache, not the raw distinct-container count (DeFrag's rewrites
  // grow the store, but concentrate each recipe's walk into cacheable
  // ping-pong between few containers).
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.2;
  DedupSystem ddfs(EngineKind::kDdfs, cfg);
  DedupSystem defrag(EngineKind::kDefrag, cfg);
  workload::SingleUserSeries s1(810, churny_fs());
  workload::SingleUserSeries s2(810, churny_fs());

  constexpr std::uint32_t kGens = 8;
  for (std::uint32_t g = 1; g <= kGens; ++g) {
    ddfs.ingest_as(g, s1.next().stream);
    defrag.ingest_as(g, s2.next().stream);
  }
  const RestoreResult d = ddfs.restore(kGens);
  const RestoreResult f = defrag.restore(kGens);
  EXPECT_LT(f.container_loads, d.container_loads);
  EXPECT_GT(f.read_mb_s(), d.read_mb_s());
}

TEST(LocalityTrendsTest, DefragThroughputBeatsDdfsUnderChurn) {
  // Paper Fig. 4's shape appears once DDFS's duplicate-container working
  // set no longer fits the locality cache (the RAM-starved regime of the
  // paper); pin the cache small so the cliff arrives within the test run.
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.2;
  cfg.metadata_cache_containers = 3;
  DedupSystem ddfs(EngineKind::kDdfs, cfg);
  DedupSystem defrag(EngineKind::kDefrag, cfg);
  workload::SingleUserSeries s1(811, churny_fs());
  workload::SingleUserSeries s2(811, churny_fs());

  constexpr std::uint32_t kGens = 14;
  std::vector<double> d_tp, f_tp;
  for (std::uint32_t g = 1; g <= kGens; ++g) {
    d_tp.push_back(ddfs.ingest_as(g, s1.next().stream).throughput_mb_s());
    f_tp.push_back(defrag.ingest_as(g, s2.next().stream).throughput_mb_s());
  }
  // In the later, fragmented generations DeFrag's throughput exceeds DDFS's.
  EXPECT_GT(mean(f_tp, kGens - 4, kGens), mean(d_tp, kGens - 4, kGens));
}

TEST(LocalityTrendsTest, AlphaControlsTheTradeoff) {
  // Larger alpha => more rewriting => less compression but cheaper restores
  // (fewer container loads through the read cache).
  workload::FsParams fs = churny_fs();
  std::vector<double> alphas = {0.0, 0.3, 1.2};
  std::vector<double> compression, restore_loads;
  for (double alpha : alphas) {
    auto cfg = testing::small_engine_config();
    cfg.defrag_alpha = alpha;
    DedupSystem sys(EngineKind::kDefrag, cfg);
    workload::SingleUserSeries series(812, fs);
    constexpr std::uint32_t kGens = 6;
    for (std::uint32_t g = 1; g <= kGens; ++g) {
      sys.ingest_as(g, series.next().stream);
    }
    compression.push_back(sys.compression_ratio());
    restore_loads.push_back(
        static_cast<double>(sys.restore(kGens).container_loads));
  }
  EXPECT_GE(compression[0], compression[1]);
  EXPECT_GE(compression[1], compression[2]);
  EXPECT_GE(restore_loads[0], restore_loads[1]);
  EXPECT_GE(restore_loads[1], restore_loads[2]);
}

}  // namespace
}  // namespace defrag
