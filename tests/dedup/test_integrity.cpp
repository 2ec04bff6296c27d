#include "dedup/integrity.h"

#include <gtest/gtest.h>

#include "core/dedup_system.h"
#include "testing/data.h"
#include "testing/engine_config.h"

namespace defrag {
namespace {

TEST(IntegrityTest, CleanStoreScrubsClean) {
  DedupSystem sys(EngineKind::kDefrag, testing::small_engine_config());
  sys.ingest_as(1, testing::random_bytes(512 * 1024, 200));
  sys.ingest_as(2, testing::random_bytes(512 * 1024, 201));
  const auto& base = sys.engine();

  const IntegrityReport r =
      scrub(base.container_store(), base.recipe_store(), {1, 2});
  EXPECT_TRUE(r.clean());
  EXPECT_GT(r.entries_checked, 0u);
  EXPECT_EQ(r.bytes_checked, 1024u * 1024u);
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(IntegrityTest, DetectsFingerprintMismatch) {
  // Build a store by hand and lie about one chunk's fingerprint: the scrub
  // must flag exactly that entry.
  ContainerStore store(256 * 1024);
  RecipeStore recipes;
  DiskSim sim;

  const Bytes good = testing::random_bytes(4096, 202);
  const Bytes evil = testing::random_bytes(4096, 203);

  Recipe& recipe = recipes.create(1, "tampered");
  recipe.add(Fingerprint::of(good),
             store.append(Fingerprint::of(good), good, 0, sim));
  // Stored `evil` bytes but recorded `good`'s fingerprint.
  recipe.add(Fingerprint::of(good),
             store.append(Fingerprint::of(good), evil, 0, sim));
  store.flush();

  const IntegrityReport r = scrub(store, recipes, {1});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].generation, 1u);
  EXPECT_EQ(r.violations[0].entry_index, 1u);
  EXPECT_EQ(r.violations[0].what, "fingerprint mismatch");
}

TEST(IntegrityTest, DetectsUnresolvableLocation) {
  ContainerStore store(256 * 1024);
  RecipeStore recipes;
  DiskSim sim;
  const Bytes data = testing::random_bytes(1024, 204);
  store.append(Fingerprint::of(data), data, 0, sim);
  store.flush();

  Recipe& recipe = recipes.create(1, "dangling");
  recipe.add(Fingerprint::of(data), ChunkLocation{99, 0, 1024});

  const IntegrityReport r = scrub(store, recipes, {1});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].what, "unresolvable location");
}

TEST(IntegrityTest, DetectsOutOfBoundsExtent) {
  ContainerStore store(256 * 1024);
  RecipeStore recipes;
  DiskSim sim;
  const Bytes data = testing::random_bytes(1024, 205);
  const ChunkLocation loc = store.append(Fingerprint::of(data), data, 0, sim);
  store.flush();

  Recipe& recipe = recipes.create(1, "overlong");
  ChunkLocation bad = loc;
  bad.size = 9999;
  recipe.add(Fingerprint::of(data), bad);

  const IntegrityReport r = scrub(store, recipes, {1});
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].what, "extent out of container bounds");
}

TEST(IntegrityTest, ScrubCoversAllEnginesEndToEnd) {
  for (EngineKind kind :
       {EngineKind::kDdfs, EngineKind::kSilo, EngineKind::kSparse,
        EngineKind::kDefrag, EngineKind::kCbr}) {
    DedupSystem sys(kind, testing::small_engine_config());
    Bytes stream = testing::random_bytes(512 * 1024, 206);
    sys.ingest_as(1, stream);
    for (std::size_t i = 0; i < stream.size(); i += 64 * 1024) stream[i] ^= 1;
    sys.ingest_as(2, stream);
    const auto& base = sys.engine();
    const IntegrityReport r =
        scrub(base.container_store(), base.recipe_store(), {1, 2});
    EXPECT_TRUE(r.clean()) << to_string(kind);
  }
}

}  // namespace
}  // namespace defrag
