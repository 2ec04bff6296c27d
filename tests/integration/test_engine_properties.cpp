// Engine-generic property suite: invariants every engine kind must satisfy
// on every workload (DESIGN.md §6), run as a (engine x workload) matrix.
#include <gtest/gtest.h>

#include <tuple>

#include "core/dedup_system.h"
#include "testing/engine_config.h"
#include "workload/backup_series.h"

namespace defrag {
namespace {

using Param = std::tuple<EngineKind, std::uint64_t /*workload seed*/>;

class EnginePropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  static workload::FsParams fs() {
    workload::FsParams p;
    p.initial_files = 10;
    p.mean_file_bytes = 48 * 1024;
    p.mutation.file_modify_prob = 0.4;
    return p;
  }
};

TEST_P(EnginePropertyTest, AccountingHoldsEveryGeneration) {
  DedupSystem sys(std::get<0>(GetParam()), testing::small_engine_config());
  workload::SingleUserSeries series(std::get<1>(GetParam()), fs());
  for (std::uint32_t g = 1; g <= 5; ++g) {
    const BackupResult r = sys.ingest_as(g, series.next().stream);
    testing::expect_accounting_consistent(r);
    EXPECT_GT(r.sim_seconds, 0.0);
    EXPECT_LE(r.dedup_efficiency(), 1.0 + 1e-12);
  }
  // Physical store equals the sum of per-generation stored bytes.
  std::uint64_t stored = 0;
  for (const auto& r : sys.history()) stored += r.stored_bytes();
  const auto& base = sys.engine();
  EXPECT_EQ(base.stored_data_bytes(), stored);
}

TEST_P(EnginePropertyTest, IdenticalSystemsProduceIdenticalResults) {
  // Engines are deterministic: same config + same stream sequence => same
  // metrics, bit for bit.
  DedupSystem a(std::get<0>(GetParam()), testing::small_engine_config());
  DedupSystem b(std::get<0>(GetParam()), testing::small_engine_config());
  workload::SingleUserSeries sa(std::get<1>(GetParam()), fs());
  workload::SingleUserSeries sb(std::get<1>(GetParam()), fs());
  for (std::uint32_t g = 1; g <= 3; ++g) {
    const BackupResult ra = a.ingest_as(g, sa.next().stream);
    const BackupResult rb = b.ingest_as(g, sb.next().stream);
    EXPECT_EQ(ra.unique_bytes, rb.unique_bytes);
    EXPECT_EQ(ra.removed_bytes, rb.removed_bytes);
    EXPECT_EQ(ra.rewritten_bytes, rb.rewritten_bytes);
    EXPECT_EQ(ra.missed_dup_bytes, rb.missed_dup_bytes);
    EXPECT_EQ(ra.io.seeks, rb.io.seeks);
    EXPECT_DOUBLE_EQ(ra.sim_seconds, rb.sim_seconds);
  }
}

TEST_P(EnginePropertyTest, RecipeBytesMatchStreams) {
  DedupSystem sys(std::get<0>(GetParam()), testing::small_engine_config());
  workload::SingleUserSeries series(std::get<1>(GetParam()), fs());
  std::vector<std::uint64_t> sizes;
  for (std::uint32_t g = 1; g <= 3; ++g) {
    const auto b = series.next();
    sizes.push_back(b.stream.size());
    sys.ingest_as(g, b.stream);
  }
  const auto& base = sys.engine();
  for (std::uint32_t g = 1; g <= 3; ++g) {
    EXPECT_EQ(base.recipe_store().get(g).logical_bytes(), sizes[g - 1]);
  }
}

TEST_P(EnginePropertyTest, SeeksAreTheOnlySourceOfSeekTime) {
  DedupSystem sys(std::get<0>(GetParam()), testing::small_engine_config());
  workload::SingleUserSeries series(std::get<1>(GetParam()), fs());
  for (std::uint32_t g = 1; g <= 3; ++g) {
    const BackupResult r = sys.ingest_as(g, series.next().stream);
    const auto& cfg = testing::small_engine_config();
    const double floor =
        static_cast<double>(r.logical_bytes) / 1e6 / cfg.cpu_mb_per_s +
        static_cast<double>(r.io.seeks) * cfg.disk.seek_seconds;
    EXPECT_GE(r.sim_seconds + 1e-9, floor);
  }
}

// The base backup frame serves every engine: an empty stream yields an
// empty generation that restores to nothing.
TEST_P(EnginePropertyTest, EmptyStreamBacksUpAndRestores) {
  DedupSystem sys(std::get<0>(GetParam()), testing::small_engine_config());
  const BackupResult r = sys.ingest_as(1, ByteView());
  EXPECT_EQ(r.logical_bytes, 0u);
  EXPECT_EQ(r.chunk_count, 0u);
  EXPECT_EQ(r.segment_count, 0u);
  EXPECT_EQ(r.stored_bytes(), 0u);
  testing::expect_accounting_consistent(r);
  RestoreResult rr;
  EXPECT_TRUE(sys.restore_bytes(1, &rr).empty());
  EXPECT_EQ(rr.logical_bytes, 0u);
  EXPECT_EQ(rr.container_loads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EngineMatrix, EnginePropertyTest,
    ::testing::Combine(::testing::Values(EngineKind::kDdfs, EngineKind::kSilo,
                                         EngineKind::kSparse,
                                         EngineKind::kDefrag,
                                         EngineKind::kCbr),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{22})),
    [](const ::testing::TestParamInfo<Param>& tpi) {
      std::string name = to_string(std::get<0>(tpi.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(tpi.param));
    });

}  // namespace
}  // namespace defrag
