#include "dedup/restore_strategies.h"

#include <gtest/gtest.h>

#include "common/sha256.h"
#include "core/dedup_system.h"
#include "testing/data.h"
#include "testing/engine_config.h"
#include "workload/backup_series.h"

namespace defrag {
namespace {

class RestoreStrategyTest : public ::testing::TestWithParam<RestoreStrategy> {
 protected:
  RestoreStrategyTest() : sys_(EngineKind::kDdfs, testing::small_engine_config()) {
    workload::FsParams fs;
    fs.initial_files = 12;
    fs.mean_file_bytes = 48 * 1024;
    workload::SingleUserSeries series(4040, fs);
    for (std::uint32_t g = 1; g <= 4; ++g) {
      const auto b = series.next();
      digests_.push_back(Sha256::hash(b.stream));
      sys_.ingest_as(g, b.stream);
    }
  }

  const DedupEngine& base() const {
    return sys_.engine();
  }

  DedupSystem sys_;
  std::vector<Sha256::Digest> digests_;
};

TEST_P(RestoreStrategyTest, RestoresEveryGenerationLosslessly) {
  RestoreOptions opt;
  opt.strategy = GetParam();
  for (std::uint32_t g = 1; g <= 4; ++g) {
    Bytes out;
    const RestoreResult r = restore_with_strategy(
        base().container_store(), base().recipe_store().get(g),
        base().config().disk, opt, &out);
    EXPECT_EQ(Sha256::hash(out), digests_[g - 1]) << "generation " << g;
    EXPECT_GT(r.sim_seconds, 0.0);
    EXPECT_EQ(r.logical_bytes, out.size());
  }
}

TEST_P(RestoreStrategyTest, SimulationOnlyModeMatchesCosts) {
  RestoreOptions opt;
  opt.strategy = GetParam();
  Bytes out;
  const RestoreResult with_bytes = restore_with_strategy(
      base().container_store(), base().recipe_store().get(4),
      base().config().disk, opt, &out);
  const RestoreResult sim_only = restore_with_strategy(
      base().container_store(), base().recipe_store().get(4),
      base().config().disk, opt, nullptr);
  EXPECT_EQ(with_bytes.container_loads, sim_only.container_loads);
  EXPECT_DOUBLE_EQ(with_bytes.sim_seconds, sim_only.sim_seconds);
}

// The sink is the one walk; the Bytes* form only appends what it is fed.
// Bytes, loads and the I/O model must agree exactly, call for call.
TEST_P(RestoreStrategyTest, SinkMatchesBytesOutput) {
  RestoreOptions opt;
  opt.strategy = GetParam();
  for (std::uint32_t g = 1; g <= 4; ++g) {
    const Recipe& recipe = base().recipe_store().get(g);
    Bytes out;
    const RestoreResult bytes_form = restore_with_strategy(
        base().container_store(), recipe, base().config().disk, opt, &out);
    Bytes sunk;
    std::size_t calls = 0;
    const RestoreResult sink_form = restore_with_strategy(
        base().container_store(), recipe, base().config().disk, opt,
        [&](ByteView b) {
          sunk.insert(sunk.end(), b.begin(), b.end());
          ++calls;
        });
    EXPECT_EQ(sunk, out) << "generation " << g;
    EXPECT_EQ(calls, recipe.entries().size()) << "generation " << g;
    EXPECT_EQ(sink_form.logical_bytes, bytes_form.logical_bytes);
    EXPECT_EQ(sink_form.container_loads, bytes_form.container_loads);
    EXPECT_EQ(sink_form.io.seeks, bytes_form.io.seeks);
    EXPECT_EQ(sink_form.io.bytes_read, bytes_form.io.bytes_read);
    EXPECT_EQ(sink_form.io.bytes_written, bytes_form.io.bytes_written);
    EXPECT_EQ(sink_form.sim_seconds, bytes_form.sim_seconds);
    EXPECT_EQ(sink_form.cache_hit_rate, bytes_form.cache_hit_rate);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RestoreStrategyTest,
                         ::testing::Values(RestoreStrategy::kContainerLru,
                                           RestoreStrategy::kChunkLru,
                                           RestoreStrategy::kForwardAssembly),
                         [](const auto& tpi) {
                           std::string n = to_string(tpi.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(RestoreStrategyComparisonTest, ForwardAssemblyNeverLoadsMoreThanUncachedWalk) {
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  workload::FsParams fs;
  fs.initial_files = 12;
  fs.mean_file_bytes = 48 * 1024;
  fs.mutation.file_modify_prob = 0.5;
  workload::SingleUserSeries series(4041, fs);
  for (std::uint32_t g = 1; g <= 6; ++g) sys.ingest_as(g, series.next().stream);

  const auto& base = sys.engine();
  const Recipe& recipe = base.recipe_store().get(6);

  RestoreOptions faa;
  faa.strategy = RestoreStrategy::kForwardAssembly;
  faa.assembly_bytes = 4ull << 20;
  const RestoreResult f = restore_with_strategy(
      base.container_store(), recipe, base.config().disk, faa, nullptr);

  // An uncached walk pays one load per container *switch*; the assembly
  // area pays at most one per (window, container) pair.
  EXPECT_LE(f.container_loads, recipe.container_switches());
  // And it can never beat the distinct-container lower bound per window.
  EXPECT_GE(f.container_loads, recipe.distinct_containers());
}

TEST(RestoreStrategyComparisonTest, ChunkLruPaysPerChunkOnFragmentedData) {
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  const Bytes stream = testing::random_bytes(512 * 1024, 4042);
  sys.ingest_as(1, stream);
  const auto& base = sys.engine();
  const Recipe& recipe = base.recipe_store().get(1);

  RestoreOptions chunk;
  chunk.strategy = RestoreStrategy::kChunkLru;
  const RestoreResult c = restore_with_strategy(
      base.container_store(), recipe, base.config().disk, chunk, nullptr);
  // All chunks distinct: one seek per chunk — Fig. 1's worst case.
  EXPECT_EQ(c.io.seeks, recipe.entries().size());

  RestoreOptions cont;
  cont.strategy = RestoreStrategy::kContainerLru;
  const RestoreResult k = restore_with_strategy(
      base.container_store(), recipe, base.config().disk, cont, nullptr);
  EXPECT_LT(k.io.seeks, c.io.seeks);
}

TEST(RestoreStrategyComparisonTest, TinyAssemblyAreaStillCorrect) {
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  const Bytes stream = testing::random_bytes(256 * 1024, 4043);
  sys.ingest_as(1, stream);
  const auto& base = sys.engine();

  RestoreOptions opt;
  opt.strategy = RestoreStrategy::kForwardAssembly;
  opt.assembly_bytes = 1;  // smaller than any chunk: one-chunk windows
  Bytes out;
  restore_with_strategy(base.container_store(), base.recipe_store().get(1),
                        base.config().disk, opt, &out);
  EXPECT_EQ(out, stream);
}

}  // namespace
}  // namespace defrag
