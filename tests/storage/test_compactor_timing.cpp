// Compaction time model: offline GC's copies block (read + write), unlike
// the engines' write-behind ingest appends.
#include <gtest/gtest.h>

#include "core/dedup_system.h"
#include "storage/compactor.h"
#include "testing/data.h"
#include "testing/engine_config.h"

namespace defrag {
namespace {

TEST(CompactorTimingTest, SweepPaysReadAndWriteTime) {
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  const Bytes stream = testing::random_bytes(512 * 1024, 950);
  sys.ingest_as(1, stream);
  const auto& base = sys.engine();

  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  const DiskModel disk{};
  DiskSim sim(disk);
  const CompactionResult r = compactor.compact(
      base.container_store(), base.recipe_store(), {1}, &fresh_store,
      &fresh_recipes, sim);

  // Lower bound: every live byte is read once AND written once, plus one
  // seek per source container.
  const double floor = disk.read_seconds(r.live_bytes) +
                       disk.write_seconds(r.live_bytes) +
                       static_cast<double>(r.io.seeks) * disk.seek_seconds;
  EXPECT_GE(r.sim_seconds + 1e-9, floor);
}

TEST(CompactorTimingTest, CompactionCostScalesWithLiveBytes) {
  double small_cost = 0.0, large_cost = 0.0;
  for (int scale : {1, 4}) {
    DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
    const Bytes stream = testing::random_bytes(
        static_cast<std::size_t>(scale) * 256 * 1024, 951);
    sys.ingest_as(1, stream);
    const auto& base = sys.engine();

    Compactor compactor;
    ContainerStore fresh_store;
    RecipeStore fresh_recipes;
    DiskSim sim;
    const CompactionResult r = compactor.compact(
        base.container_store(), base.recipe_store(), {1}, &fresh_store,
        &fresh_recipes, sim);
    (scale == 1 ? small_cost : large_cost) = r.sim_seconds;
  }
  EXPECT_GT(large_cost, 2.0 * small_cost);
}

}  // namespace
}  // namespace defrag
