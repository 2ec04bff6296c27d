#include <gtest/gtest.h>

#include "core/dedup_system.h"
#include "storage/container_store.h"
#include "testing/data.h"
#include "testing/engine_config.h"
#include "workload/backup_series.h"

namespace defrag {
namespace {

Bytes text_bytes(std::size_t n, std::uint64_t seed) {
  return workload::materialize(std::vector<workload::Extent>{
      workload::Extent{seed, static_cast<std::uint32_t>(n),
                       workload::ExtentKind::kText}});
}

TEST(ContainerCompressionTest, SealShrinksCompressibleContainer) {
  ContainerStore store(256 * 1024, /*compress_on_seal=*/true);
  DiskSim sim;
  const Bytes text = text_bytes(200 * 1024, 400);
  store.append(Fingerprint::of(text), text, 0, sim);
  store.flush();

  const Container& c = store.peek(0);
  EXPECT_TRUE(c.sealed());
  EXPECT_LT(c.stored_bytes(), c.data_bytes());
  EXPECT_GT(c.local_compression(), 2.0);
  EXPECT_LT(store.total_stored_bytes(), store.total_data_bytes());
}

TEST(ContainerCompressionTest, IncompressibleContainerKeepsRawSize) {
  ContainerStore store(256 * 1024, /*compress_on_seal=*/true);
  DiskSim sim;
  const Bytes noise = testing::random_bytes(200 * 1024, 401);
  store.append(Fingerprint::of(noise), noise, 0, sim);
  store.flush();

  const Container& c = store.peek(0);
  EXPECT_EQ(c.stored_bytes(), c.data_bytes());
  EXPECT_DOUBLE_EQ(c.local_compression(), 1.0);
}

TEST(ContainerCompressionTest, LoadChargesCompressedTransfer) {
  ContainerStore store(256 * 1024, /*compress_on_seal=*/true);
  DiskSim sim;
  const Bytes text = text_bytes(200 * 1024, 402);
  const auto loc = store.append(Fingerprint::of(text), text, 0, sim);
  store.flush();

  DiskSim read_sim;
  const Container& c = store.load(loc.container, read_sim);
  EXPECT_EQ(read_sim.stats().bytes_read,
            c.stored_bytes() + c.metadata_bytes());
  EXPECT_LT(read_sim.stats().bytes_read, c.data_bytes());
}

TEST(ContainerCompressionTest, ReadsStillServeRawBytes) {
  ContainerStore store(256 * 1024, /*compress_on_seal=*/true);
  DiskSim sim;
  const Bytes text = text_bytes(100 * 1024, 403);
  const auto loc = store.append(Fingerprint::of(text), text, 0, sim);
  store.flush();
  const ByteView back = store.peek(loc.container).read(loc);
  EXPECT_TRUE(std::equal(back.begin(), back.end(), text.begin()));
}

TEST(ContainerCompressionTest, EndToEndWithTextWorkload) {
  auto cfg = testing::small_engine_config();
  cfg.compress_containers = true;
  DedupSystem sys(EngineKind::kDefrag, cfg);

  workload::FsParams fs;
  fs.initial_files = 12;
  fs.mean_file_bytes = 64 * 1024;
  fs.text_fraction = 0.7;
  workload::SingleUserSeries series(404, fs);

  const workload::Backup b1 = series.next();
  sys.ingest_as(1, b1.stream);
  const workload::Backup b2 = series.next();
  sys.ingest_as(2, b2.stream);

  const auto& base = sys.engine();
  // Dedup removed the cross-generation redundancy; local compression must
  // shrink the mostly-text residue further.
  EXPECT_LT(base.stored_physical_bytes(), base.stored_data_bytes());

  // And restores remain lossless.
  EXPECT_EQ(sys.restore_bytes(1), b1.stream);
  EXPECT_EQ(sys.restore_bytes(2), b2.stream);
}

TEST(ContainerCompressionTest, TextWorkloadDeterministic) {
  workload::FsParams fs;
  fs.initial_files = 8;
  fs.text_fraction = 0.5;
  workload::FileSystemModel a(42, fs), b(42, fs);
  a.mutate();
  b.mutate();
  EXPECT_EQ(a.materialize_stream(), b.materialize_stream());
}

}  // namespace
}  // namespace defrag
