#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "storage/container_store.h"
#include "testing/data.h"

namespace defrag {
namespace {

constexpr std::uint64_t kSmallContainer = 64 * 1024;  // store minimum

Bytes chunk_data(std::uint64_t stream, std::uint64_t i, std::size_t n) {
  return testing::random_bytes(n, stream * 100000 + i);
}

TEST(ConcurrentAppendTest, SerialPathDisabledInStreamMode) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  const Bytes data = chunk_data(0, 0, 1024);
  EXPECT_THROW(store.append(Fingerprint::of(data), data, kInvalidSegment, sim),
               CheckFailure);
  EXPECT_THROW(store.flush(), CheckFailure);
  EXPECT_EQ(store.open_container(), kInvalidContainer);
  appender.close();
}

TEST(ConcurrentAppendTest, OpenStreamSealsSerialTail) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  const Bytes data = chunk_data(0, 0, 1024);
  store.append(Fingerprint::of(data), data, kInvalidSegment, sim);
  ASSERT_NE(store.open_container(), kInvalidContainer);
  auto appender = store.open_stream();
  EXPECT_TRUE(store.peek(0).sealed());
  appender.close();
}

TEST(ConcurrentAppendTest, AppenderWritesReadBackAndSealOnClose) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();

  std::vector<std::pair<ChunkLocation, Bytes>> written;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Bytes data = chunk_data(1, i, 4096);
    const ChunkLocation loc =
        appender.append(Fingerprint::of(data), data, kInvalidSegment, sim);
    ASSERT_TRUE(loc.valid());
    written.emplace_back(loc, std::move(data));
  }
  appender.close();

  for (const auto& [loc, data] : written) {
    const Container& c = store.peek(loc.container);
    EXPECT_TRUE(c.sealed());
    const ByteView read = c.read(loc);
    EXPECT_TRUE(std::equal(read.begin(), read.end(), data.begin(), data.end()));
  }
  EXPECT_EQ(store.total_data_bytes(), 8u * 4096u);
}

TEST(ConcurrentAppendTest, AppenderRollsAndPlacesSequentially) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();

  // 24 x 8 KiB = 192 KiB through 64 KiB containers: at least 3 containers.
  std::vector<ChunkLocation> locs;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const Bytes data = chunk_data(2, i, 8192);
    locs.push_back(
        appender.append(Fingerprint::of(data), data, kInvalidSegment, sim));
  }
  appender.close();
  EXPECT_GE(store.container_count(), 3u);

  // Sequential placement: within each container, offsets grow in append
  // order with no holes.
  for (std::size_t i = 1; i < locs.size(); ++i) {
    if (locs[i].container == locs[i - 1].container) {
      EXPECT_EQ(locs[i].offset, locs[i - 1].offset + locs[i - 1].size);
    } else {
      EXPECT_EQ(locs[i].offset, 0u);
    }
  }
}

TEST(ConcurrentAppendTest, CloseIsIdempotentAndAppendAfterCloseThrows) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  const Bytes data = chunk_data(3, 0, 1024);
  appender.append(Fingerprint::of(data), data, kInvalidSegment, sim);
  appender.close();
  appender.close();
  EXPECT_THROW(
      appender.append(Fingerprint::of(data), data, kInvalidSegment, sim),
      CheckFailure);
}

// N streams appending concurrently into one store. Each stream tags its
// chunks with its own SegmentId, so afterwards we can assert the paper's
// placement invariant: every container holds chunks of exactly one stream,
// back-to-back in that stream's order. Run under TSan in the sanitize CI
// matrix, this is the data-race gate for concurrent appends.
TEST(ConcurrentAppendTest, ParallelStreamsStaySequentialPerContainer) {
  constexpr std::size_t kStreams = 4;
  constexpr std::uint64_t kChunksPerStream = 48;

  ContainerStore store(kSmallContainer);
  std::vector<std::vector<ChunkLocation>> locs(kStreams);

  std::vector<std::thread> threads;
  threads.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      DiskSim sim;
      auto appender = store.open_stream();
      for (std::uint64_t i = 0; i < kChunksPerStream; ++i) {
        const Bytes data = chunk_data(s, i, 4096 + 512 * (i % 5));
        locs[s].push_back(appender.append(Fingerprint::of(data), data,
                                          /*segment=*/s, sim));
      }
      appender.close();
    });
  }
  for (auto& th : threads) th.join();

  // Every location is valid and no two chunks share (container, offset).
  std::set<std::pair<ContainerId, std::uint32_t>> placements;
  for (const auto& stream_locs : locs) {
    for (const ChunkLocation& loc : stream_locs) {
      ASSERT_TRUE(loc.valid());
      EXPECT_TRUE(placements.emplace(loc.container, loc.offset).second);
    }
  }

  // One stream per container, and within it the stream's own order.
  std::map<ContainerId, std::size_t> container_owner;
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::size_t i = 0; i < locs[s].size(); ++i) {
      const ChunkLocation& loc = locs[s][i];
      const auto it = container_owner.emplace(loc.container, s).first;
      EXPECT_EQ(it->second, s) << "container shared by two streams";
      if (i > 0 && locs[s][i - 1].container == loc.container) {
        EXPECT_EQ(loc.offset,
                  locs[s][i - 1].offset + locs[s][i - 1].size);
      }
    }
  }
  for (ContainerId id = 0; id < store.container_count(); ++id) {
    const Container& c = store.peek(id);
    EXPECT_TRUE(c.sealed());
    for (const ContainerEntry& e : c.entries()) {
      EXPECT_EQ(e.segment, container_owner.at(id));
    }
  }

  // Read-back across all streams, and quiescent accounting adds up.
  std::uint64_t expected_bytes = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::uint64_t i = 0; i < kChunksPerStream; ++i) {
      const Bytes data = chunk_data(s, i, 4096 + 512 * (i % 5));
      const ByteView read = store.peek(locs[s][i].container).read(locs[s][i]);
      ASSERT_TRUE(
          std::equal(read.begin(), read.end(), data.begin(), data.end()));
      expected_bytes += data.size();
    }
  }
  EXPECT_EQ(store.total_data_bytes(), expected_bytes);
}

// Store-side seal publication (the concurrent-restore barrier used by
// defrag-serve): a container is "visible" only once its seal has been
// published under the store lock, which happens no later than appender
// close().
TEST(ConcurrentAppendTest, SealPublicationTracksAppenderLifecycle) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  const Bytes data = chunk_data(5, 0, 4096);
  const ChunkLocation loc =
      appender.append(Fingerprint::of(data), data, kInvalidSegment, sim);
  ASSERT_TRUE(loc.valid());
  EXPECT_FALSE(store.sealed_visible(loc.container));
  appender.close();
  EXPECT_TRUE(store.sealed_visible(loc.container));
  store.wait_sealed(loc.container);  // already published: returns at once
  const Container& c = store.load_sealed(loc.container, sim);
  const ByteView read = c.read(loc);
  EXPECT_TRUE(std::equal(read.begin(), read.end(), data.begin(), data.end()));
}

// Rolling to a fresh container publishes the full one's seal immediately —
// a reader must not have to wait for the whole stream to finish.
TEST(ConcurrentAppendTest, RolledContainerIsVisibleBeforeClose) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  ChunkLocation first;
  ChunkLocation last;
  for (std::uint64_t i = 0; i < 24; ++i) {  // 192 KiB: rolls at least twice
    const Bytes data = chunk_data(6, i, 8192);
    last = appender.append(Fingerprint::of(data), data, kInvalidSegment, sim);
    if (i == 0) first = last;
  }
  ASSERT_NE(first.container, last.container);
  EXPECT_TRUE(store.sealed_visible(first.container));
  EXPECT_FALSE(store.sealed_visible(last.container));
  appender.close();
  EXPECT_TRUE(store.sealed_visible(last.container));
}

TEST(ConcurrentAppendTest, WaitSealedBlocksUntilPublication) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  const Bytes data = chunk_data(7, 0, 4096);
  const ChunkLocation loc =
      appender.append(Fingerprint::of(data), data, kInvalidSegment, sim);

  std::atomic<bool> read_ok{false};
  std::thread reader([&store, &read_ok, loc, &data] {
    store.wait_sealed(loc.container);
    DiskSim reader_sim;
    const Container& c = store.load_sealed(loc.container, reader_sim);
    const ByteView read = c.read(loc);
    read_ok.store(
        std::equal(read.begin(), read.end(), data.begin(), data.end()));
  });
  // The reader can only proceed once this close publishes the seal; the
  // happens-before edge is exactly what TSan verifies here.
  appender.close();
  reader.join();
  EXPECT_TRUE(read_ok.load());
}

// A reader already blocked on an open container is released by the owner's
// park(): it seals the container itself, and the owner's next append after
// resume() rolls to a fresh one. TSan checks the hand-over both ways.
TEST(ConcurrentAppendTest, ParkLetsAWaitingReaderSealAndTheOwnerRolls) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  const Bytes data = chunk_data(8, 0, 4096);
  const ChunkLocation loc =
      appender.append(Fingerprint::of(data), data, kInvalidSegment, sim);

  std::atomic<bool> read_ok{false};
  std::thread reader([&store, &read_ok, loc, &data] {
    DiskSim reader_sim;
    const ByteView read =
        store.load_sealed(loc.container, reader_sim).read(loc);
    read_ok.store(
        std::equal(read.begin(), read.end(), data.begin(), data.end()));
  });
  appender.park();
  reader.join();
  EXPECT_TRUE(read_ok.load());
  EXPECT_TRUE(store.sealed_visible(loc.container));

  appender.resume();
  const Bytes more = chunk_data(8, 1, 4096);
  const ChunkLocation next =
      appender.append(Fingerprint::of(more), more, kInvalidSegment, sim);
  EXPECT_NE(next.container, loc.container);
  appender.close();
  EXPECT_TRUE(store.sealed_visible(next.container));
}

// Without a waiting reader, park() + resume() changes nothing: the owner
// keeps appending to the same container.
TEST(ConcurrentAppendTest, ParkWithoutAReaderKeepsPlacement) {
  ContainerStore store(kSmallContainer);
  DiskSim sim;
  auto appender = store.open_stream();
  const Bytes a = chunk_data(9, 0, 4096);
  const Bytes b = chunk_data(9, 1, 4096);
  const ChunkLocation first =
      appender.append(Fingerprint::of(a), a, kInvalidSegment, sim);
  appender.park();
  EXPECT_FALSE(store.sealed_visible(first.container));
  EXPECT_THROW(appender.append(Fingerprint::of(b), b, kInvalidSegment, sim),
               CheckFailure);
  appender.resume();
  const ChunkLocation second =
      appender.append(Fingerprint::of(b), b, kInvalidSegment, sim);
  EXPECT_EQ(second.container, first.container);
  appender.close();
}

}  // namespace
}  // namespace defrag
