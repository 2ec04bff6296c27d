#include "core/cbr_engine.h"

#include <gtest/gtest.h>

#include "testing/data.h"
#include "testing/engine_config.h"

namespace defrag {
namespace {

TEST(CbrEngineTest, ZeroThresholdNeverRewrites) {
  auto cfg = testing::small_engine_config();
  CbrParams p;
  p.utilization_threshold = 0.0;
  CbrEngine engine(cfg, p);
  const Bytes s1 = testing::random_bytes(512 * 1024, 180);
  engine.backup(1, s1);
  const BackupResult r =
      engine.backup(2, testing::fragmented_followup(s1, 181));
  EXPECT_EQ(r.rewritten_bytes, 0u);
  EXPECT_EQ(r.removed_bytes, r.redundant_bytes);
  testing::expect_accounting_consistent(r);
}

TEST(CbrEngineTest, FragmentedDuplicatesGetRewrittenWithinBudget) {
  auto cfg = testing::small_engine_config();
  CbrParams p;
  p.utilization_threshold = 0.3;
  p.rewrite_budget = 0.05;
  CbrEngine engine(cfg, p);
  const Bytes s1 = testing::random_bytes(1 << 20, 182);
  engine.backup(1, s1);
  const Bytes s2 = testing::fragmented_followup(s1, 183);
  const BackupResult r = engine.backup(2, s2);

  EXPECT_GT(r.rewritten_bytes, 0u);
  // The budget is a hard cap (plus at most one chunk of slack).
  EXPECT_LE(r.rewritten_bytes,
            static_cast<std::uint64_t>(static_cast<double>(s2.size()) * 0.05) +
                cfg.chunker.max_size);
  testing::expect_accounting_consistent(r);
}

TEST(CbrEngineTest, BudgetCapsRewritesEvenAtExtremeThreshold) {
  auto cfg = testing::small_engine_config();
  CbrParams p;
  p.utilization_threshold = 1.1;  // everything qualifies
  p.rewrite_budget = 0.02;
  CbrEngine engine(cfg, p);
  const Bytes s1 = testing::random_bytes(1 << 20, 184);
  engine.backup(1, s1);
  const BackupResult r = engine.backup(2, s1);
  EXPECT_LE(r.rewritten_bytes,
            static_cast<std::uint64_t>(static_cast<double>(s1.size()) * 0.02) +
                cfg.chunker.max_size);
}

TEST(CbrEngineTest, FactoryBuildsIt) {
  auto sys = make_engine(EngineKind::kCbr, testing::small_engine_config());
  EXPECT_EQ(sys->name(), "CBR-Like");
}

TEST(CbrEngineTest, RejectsNegativeParams) {
  auto cfg = testing::small_engine_config();
  CbrParams p;
  p.utilization_threshold = -0.1;
  EXPECT_THROW((CbrEngine{cfg, p}), CheckFailure);
}

}  // namespace
}  // namespace defrag
