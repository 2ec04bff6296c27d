#include "core/defrag_engine.h"

#include <gtest/gtest.h>

#include "dedup/ddfs_engine.h"
#include "testing/data.h"
#include "testing/engine_config.h"

namespace defrag {
namespace {

TEST(DefragEngineTest, AlphaZeroIsExactDedup) {
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.0;
  DefragEngine engine(cfg);
  const Bytes s1 = testing::random_bytes(512 * 1024, 140);
  engine.backup(1, s1);
  const Bytes s2 = testing::fragmented_followup(s1, 141);
  const BackupResult r = engine.backup(2, s2);

  // SPL < 0 is impossible: nothing is ever rewritten.
  EXPECT_EQ(r.rewritten_bytes, 0u);
  EXPECT_EQ(r.removed_bytes, r.redundant_bytes);
  testing::expect_accounting_consistent(r);
}

TEST(DefragEngineTest, AlphaAboveOneRewritesAllCrossSegmentDuplicates) {
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 1.5;
  DefragEngine engine(cfg);
  const Bytes s1 = testing::random_bytes(512 * 1024, 142);
  engine.backup(1, s1);
  const BackupResult r = engine.backup(2, s1);

  // Every SPL is <= 1 < alpha, so every cross-segment duplicate is
  // rewritten; only intra-segment repeats may be removed.
  EXPECT_GT(r.rewritten_bytes, 0u);
  EXPECT_EQ(r.unique_bytes, 0u);
  testing::expect_accounting_consistent(r);
}

TEST(DefragEngineTest, DefaultAlphaKeepsHighLocalityDuplicates) {
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.1;
  DefragEngine engine(cfg);
  const Bytes s1 = testing::random_bytes(1 << 20, 143);
  engine.backup(1, s1);
  // An identical re-backup has perfect locality: SPL per bin is high, so
  // almost nothing should be rewritten.
  const BackupResult r = engine.backup(2, s1);
  EXPECT_LT(r.rewritten_bytes, r.logical_bytes / 20);
  EXPECT_GT(r.removed_bytes, r.logical_bytes * 9 / 10);
}

TEST(DefragEngineTest, FragmentedDuplicatesGetRewritten) {
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.3;
  DefragEngine engine(cfg);
  const Bytes s1 = testing::random_bytes(1 << 20, 144);
  engine.backup(1, s1);
  const Bytes s2 = testing::fragmented_followup(s1, 145);
  const BackupResult r = engine.backup(2, s2);

  EXPECT_GT(r.rewritten_bytes, 0u) << "low-SPL duplicates must be rewritten";
  testing::expect_accounting_consistent(r);
  const auto& d = engine.last_decision_stats();
  EXPECT_GT(d.bins_total, 0u);
  EXPECT_GT(d.bins_rewritten, 0u);
  EXPECT_GE(d.mean_spl(), 0.0);
  EXPECT_LE(d.mean_spl(), 1.0);
}

TEST(DefragEngineTest, RewriteReducesRestoreFragmentation) {
  // Same workload through DDFS and DeFrag: DeFrag's recipe must reference
  // fewer distinct containers for the fragmented generation.
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.3;
  DdfsEngine ddfs(cfg);
  DefragEngine defrag(cfg);

  const Bytes s1 = testing::random_bytes(1 << 20, 146);
  const Bytes s2 = testing::fragmented_followup(s1, 147);
  ddfs.backup(1, s1);
  ddfs.backup(2, s2);
  defrag.backup(1, s1);
  defrag.backup(2, s2);

  const std::size_t ddfs_frag = ddfs.recipe_store().get(2).distinct_containers();
  const std::size_t defrag_frag =
      defrag.recipe_store().get(2).distinct_containers();
  EXPECT_LT(defrag_frag, ddfs_frag);

  // And the simulated restore must be faster.
  const RestoreResult ddfs_restore = ddfs.restore(2, nullptr);
  const RestoreResult defrag_restore = defrag.restore(2, nullptr);
  EXPECT_GT(defrag_restore.read_mb_s(), ddfs_restore.read_mb_s());
}

TEST(DefragEngineTest, CompressionCostIsBounded) {
  // The whole point of alpha: DeFrag sacrifices only a small fraction of
  // compression. Rewritten bytes must stay well below removed bytes at the
  // paper's alpha on a normal (mostly-linear) workload.
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.1;
  DefragEngine engine(cfg);
  Bytes stream = testing::random_bytes(1 << 20, 151);
  engine.backup(1, stream);
  for (std::uint32_t gen = 2; gen <= 5; ++gen) {
    for (std::size_t i = gen * 7919; i < stream.size(); i += 97 * 1024) {
      stream[i] ^= 0x1f;
    }
    const BackupResult r = engine.backup(gen, stream);
    EXPECT_LT(r.rewritten_bytes, r.removed_bytes / 2)
        << "generation " << gen;
  }
}

TEST(DefragEngineTest, RewritingConvergesAcrossGenerations) {
  // Once a low-SPL sliver has been rewritten next to its neighbours, later
  // generations should find it co-located and keep it: cumulative rewritten
  // bytes must grow sub-linearly, not anew in full every generation.
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = 0.3;
  DefragEngine engine(cfg);
  const Bytes s1 = testing::random_bytes(1 << 20, 153);
  engine.backup(1, s1);
  const Bytes s2 = testing::fragmented_followup(s1, 154);
  const BackupResult first = engine.backup(2, s2);
  // Re-ingest the same fragmented stream: its duplicates now resolve to the
  // copies written (and partially rewritten) at generation 2, which are
  // sequential — far less rewriting should be needed.
  const BackupResult second = engine.backup(3, s2);
  EXPECT_LT(second.rewritten_bytes, first.rewritten_bytes / 2 + 64 * 1024);
}

TEST(DefragEngineTest, GroupWidthScalesRewriteAggressiveness) {
  // FGDEFRAG-style decision groups: a fixed-size duplicate bin is a smaller
  // fraction of a wider group, so more bins fall below alpha.
  std::uint64_t rewritten_narrow = 0, rewritten_wide = 0;
  for (std::size_t width : {1ull, 4ull}) {
    auto cfg = testing::small_engine_config();
    cfg.defrag_alpha = 0.2;
    cfg.defrag_group_segments = width;
    DefragEngine engine(cfg);
    const Bytes s1 = testing::random_bytes(1 << 20, 155);
    engine.backup(1, s1);
    const BackupResult r =
        engine.backup(2, testing::fragmented_followup(s1, 156));
    testing::expect_accounting_consistent(r);
    (width == 1 ? rewritten_narrow : rewritten_wide) = r.rewritten_bytes;

    Bytes restored;
    engine.restore(2, &restored);  // lossless under any width
    EXPECT_EQ(restored.size(), r.logical_bytes);
  }
  EXPECT_GE(rewritten_wide, rewritten_narrow);
}

TEST(DefragEngineTest, NegativeAlphaRejected) {
  auto cfg = testing::small_engine_config();
  cfg.defrag_alpha = -0.1;
  EXPECT_THROW(DefragEngine{cfg}, CheckFailure);
}

}  // namespace
}  // namespace defrag
