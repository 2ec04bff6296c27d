// The selective-rewrite loop DeFrag and CBR share
// (DdfsEngine::place_with_rewrites), checked once per engine with every
// duplicate bin past its verdict: DeFrag at alpha 1.5 (every SPL <= 1 is
// below it), CBR at utilization threshold 1.1 with the whole stream as
// rewrite budget.
#include <gtest/gtest.h>

#include <memory>

#include "chunking/chunker.h"
#include "common/sha256.h"
#include "core/cbr_engine.h"
#include "core/defrag_engine.h"
#include "dedup/chunk_prep.h"
#include "dedup/ddfs_engine.h"
#include "testing/data.h"
#include "testing/engine_config.h"

namespace defrag {
namespace {

class RewriteLoopTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  std::unique_ptr<DdfsEngine> make_engine() const {
    EngineConfig cfg = testing::small_engine_config();
    if (GetParam() == EngineKind::kDefrag) {
      cfg.defrag_alpha = 1.5;
      return std::make_unique<DefragEngine>(cfg);
    }
    CbrParams params;
    params.utilization_threshold = 1.1;
    params.rewrite_budget = 1.0;
    return std::make_unique<CbrEngine>(cfg, params);
  }
};

// Copies written by the current backup are already co-located: even a
// verdict that rewrites everything must keep them.
TEST_P(RewriteLoopTest, FreshContainersAreNeverRewritten) {
  const auto engine = make_engine();
  const Bytes unit = testing::random_bytes(192 * 1024, 152);
  Bytes stream;
  for (int i = 0; i < 4; ++i) {
    stream.insert(stream.end(), unit.begin(), unit.end());
  }
  const BackupResult r = engine->backup(1, stream);
  EXPECT_EQ(r.rewritten_bytes, 0u);
  EXPECT_GT(r.removed_bytes, 0u);
  testing::expect_accounting_consistent(r);
}

TEST_P(RewriteLoopTest, IndexPointsAtRewrittenCopy) {
  const auto engine = make_engine();
  const Bytes s1 = testing::random_bytes(256 * 1024, 148);
  engine->backup(1, s1);
  const std::size_t containers_before =
      engine->container_store().container_count();
  EXPECT_GT(engine->backup(2, s1).rewritten_bytes, 0u);

  // Every generation-2 reference lives in a container generation 2 wrote,
  // and the index was repointed there.
  for (const auto& e : engine->recipe_store().get(2).entries()) {
    EXPECT_GE(e.location.container, containers_before);
    const std::optional<IndexValue> indexed = engine->index().peek(e.fp);
    ASSERT_TRUE(indexed.has_value());
    EXPECT_EQ(indexed->location, e.location);
  }
}

// A chunk repeated inside one segment is resolved once: the repeat
// references whatever its first occurrence became — here its rewritten
// copy — and counts as removed, not rewritten again.
TEST_P(RewriteLoopTest, InSegmentRepeatReusesTheRewrittenCopy) {
  const auto engine = make_engine();
  const EngineConfig& cfg = engine->config();
  const Bytes s1 = testing::random_bytes(256 * 1024, 157);
  engine->backup(1, s1);
  const std::size_t containers_before =
      engine->container_store().container_count();

  // Generation 2 = s1 with its first chunk written twice. Both copies open
  // the first segment: together they stay under the segment minimum.
  const auto first = chunk_and_fingerprint(
      *make_chunker(cfg.chunker_kind, cfg.chunker), s1, false)[0];
  ASSERT_LT(2 * first.size, cfg.segmenter.min_bytes);
  Bytes s2(s1.begin(), s1.begin() + first.size);
  s2.insert(s2.end(), s1.begin(), s1.end());
  const BackupResult r = engine->backup(2, s2);

  const auto& entries = engine->recipe_store().get(2).entries();
  ASSERT_GE(entries.size(), 2u);
  EXPECT_EQ(entries[0].fp, first.fp);
  EXPECT_EQ(entries[1].fp, first.fp);
  EXPECT_GE(entries[0].location.container, containers_before);
  EXPECT_EQ(entries[1].location, entries[0].location);
  EXPECT_EQ(r.removed_bytes, first.size);
  EXPECT_EQ(r.rewritten_bytes, s1.size());
  testing::expect_accounting_consistent(r);
}

TEST_P(RewriteLoopTest, RestoreLosslessWithRewrites) {
  const auto engine = make_engine();
  const Bytes s1 = testing::random_bytes(1 << 20, 149);
  const Bytes s2 = testing::fragmented_followup(s1, 150);
  engine->backup(1, s1);
  EXPECT_GT(engine->backup(2, s2).rewritten_bytes, 0u);

  Bytes r1, r2;
  engine->restore(1, &r1);
  engine->restore(2, &r2);
  EXPECT_EQ(Sha256::hash(r1), Sha256::hash(s1));
  EXPECT_EQ(Sha256::hash(r2), Sha256::hash(s2));
}

INSTANTIATE_TEST_SUITE_P(SharedLoop, RewriteLoopTest,
                         ::testing::Values(EngineKind::kDefrag,
                                           EngineKind::kCbr),
                         [](const ::testing::TestParamInfo<EngineKind>& tpi) {
                           return tpi.param == EngineKind::kDefrag
                                      ? std::string("DeFrag")
                                      : std::string("CBR");
                         });

}  // namespace
}  // namespace defrag
