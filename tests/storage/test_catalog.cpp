#include "storage/catalog.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/dedup_system.h"
#include "testing/data.h"
#include "testing/engine_config.h"
#include "workload/backup_series.h"

namespace defrag {
namespace {

TEST(GenerationCatalogTest, AddAndFind) {
  GenerationCatalog c;
  c.add("/a", 0, 100);
  c.add("/b", 100, 50);
  const auto a = c.find("/a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->stream_offset, 0u);
  EXPECT_EQ(a->size, 100u);
  EXPECT_FALSE(c.find("/missing").has_value());
  EXPECT_EQ(c.total_bytes(), 150u);
}

TEST(GenerationCatalogTest, RejectsOutOfOrder) {
  GenerationCatalog c;
  c.add("/a", 100, 50);
  EXPECT_THROW(c.add("/b", 0, 50), CheckFailure);
  EXPECT_THROW(c.add("/c", 120, 10), CheckFailure);  // overlaps /a
}

TEST(GenerationCatalogTest, AllowsGaps) {
  GenerationCatalog c;
  c.add("/a", 0, 100);
  c.add("/b", 200, 50);  // a hole is fine (e.g. sparse metadata)
  EXPECT_EQ(c.total_bytes(), 250u);
}

TEST(CatalogTest, PerGenerationIsolation) {
  Catalog c;
  c.create(1).add("/a", 0, 10);
  c.create(2).add("/b", 0, 20);
  EXPECT_TRUE(c.get(1).find("/a").has_value());
  EXPECT_FALSE(c.get(2).find("/a").has_value());
  EXPECT_THROW(c.create(1), CheckFailure);
  EXPECT_THROW(c.get(9), CheckFailure);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(9));
}

class FileRestoreTest : public ::testing::Test {
 protected:
  FileRestoreTest()
      : sys_(EngineKind::kDefrag, testing::small_engine_config()) {
    workload::FsParams fs;
    fs.initial_files = 10;
    fs.mean_file_bytes = 64 * 1024;
    fs.mutation.file_modify_prob = 0.5;
    workload::SingleUserSeries series(7878, fs);
    for (std::uint32_t g = 1; g <= 4; ++g) {
      backups_.push_back(series.next());
      sys_.ingest_backup(backups_.back());
    }
  }

  DedupSystem sys_;
  std::vector<workload::Backup> backups_;
};

TEST_F(FileRestoreTest, EveryFileRestoresExactly) {
  for (const auto& backup : backups_) {
    for (const auto& f : backup.files) {
      Bytes out;
      const FileRestoreResult r =
          sys_.restore_file(backup.generation, f.path, &out);
      EXPECT_EQ(r.file_bytes, f.size);
      ASSERT_EQ(out.size(), f.size) << f.path;
      EXPECT_TRUE(std::equal(
          out.begin(), out.end(),
          backup.stream.begin() + static_cast<std::ptrdiff_t>(f.stream_offset)))
          << f.path << " gen " << backup.generation;
    }
  }
}

TEST_F(FileRestoreTest, FileRestoreCheaperThanFullRestore) {
  const auto& backup = backups_.back();
  const auto& f = backup.files.front();
  const FileRestoreResult file_r =
      sys_.restore_file(backup.generation, f.path, nullptr);
  const RestoreResult full_r = sys_.restore(backup.generation);
  EXPECT_LT(file_r.sim_seconds, full_r.sim_seconds);
  EXPECT_LE(file_r.container_loads, full_r.container_loads);
}

TEST_F(FileRestoreTest, WholeStreamFileCostsTheSameAsFullRestore) {
  // A file spanning the whole stream walks the whole recipe through the
  // same restore path as restore(), so it pays the same loads and time.
  DedupSystem sys(EngineKind::kDefrag, testing::small_engine_config());
  for (workload::Backup backup : backups_) {
    backup.files = {workload::BackupFile{"/whole", 0, backup.stream.size()}};
    sys.ingest_backup(backup);
  }
  for (const auto& backup : backups_) {
    Bytes out;
    const FileRestoreResult file_r =
        sys.restore_file(backup.generation, "/whole", &out);
    const RestoreResult full_r = sys.restore(backup.generation);
    EXPECT_EQ(file_r.container_loads, full_r.container_loads);
    EXPECT_DOUBLE_EQ(file_r.sim_seconds, full_r.sim_seconds);
    EXPECT_TRUE(out == backup.stream) << "gen " << backup.generation;
  }
}

TEST_F(FileRestoreTest, UnknownPathRejected) {
  EXPECT_THROW(sys_.restore_file(1, "/no/such/file", nullptr), CheckFailure);
}

TEST_F(FileRestoreTest, UncatalogedGenerationRejected) {
  sys_.ingest_as(9, testing::random_bytes(64 * 1024, 7879));
  EXPECT_THROW(sys_.restore_file(9, "/anything", nullptr), CheckFailure);
}

TEST_F(FileRestoreTest, FragmentCountDrivesSimulatedLatency) {
  // Paper Eq. (1) at file granularity: latency grows with container loads.
  const auto& backup = backups_.back();
  double max_loads_latency = 0.0;
  std::uint64_t max_loads = 0;
  double min_loads_latency = 1e18;
  std::uint64_t min_loads = ~0ull;
  for (const auto& f : backup.files) {
    if (f.size < 32 * 1024) continue;  // skip tiny files
    const FileRestoreResult r =
        sys_.restore_file(backup.generation, f.path, nullptr);
    if (r.container_loads > max_loads) {
      max_loads = r.container_loads;
      max_loads_latency = r.sim_seconds;
    }
    if (r.container_loads < min_loads) {
      min_loads = r.container_loads;
      min_loads_latency = r.sim_seconds;
    }
  }
  if (max_loads > min_loads) {
    EXPECT_GT(max_loads_latency, min_loads_latency);
  }
}

}  // namespace
}  // namespace defrag
