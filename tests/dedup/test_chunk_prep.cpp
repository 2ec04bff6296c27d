#include "dedup/chunk_prep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "testing/data.h"

namespace defrag {
namespace {

using chunk_prep_detail::chunk_and_fingerprint_sliced;

constexpr ChunkerKind kAllKinds[] = {ChunkerKind::kRabin, ChunkerKind::kGear,
                                     ChunkerKind::kFixed};

/// `got` must be split() + Fingerprint::of, minus the final chunk when
/// `hold_back_last`.
void expect_exact(const Chunker& chunker, ByteView data, bool hold_back_last,
                  const std::vector<StreamChunk>& got) {
  std::vector<ChunkRef> refs = chunker.split(data);
  if (hold_back_last && !refs.empty()) refs.pop_back();
  ASSERT_EQ(got.size(), refs.size()) << chunker.name();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ASSERT_EQ(got[i].stream_offset, refs[i].offset)
        << chunker.name() << " #" << i;
    ASSERT_EQ(got[i].size, refs[i].size) << chunker.name() << " #" << i;
    ASSERT_EQ(got[i].fp,
              Fingerprint::of(data.subspan(refs[i].offset, refs[i].size)))
        << chunker.name() << " #" << i;
  }
}

void expect_sliced_exact(const Chunker& chunker, ByteView data,
                         const std::vector<std::uint64_t>& starts) {
  for (const bool hold : {false, true}) {
    SCOPED_TRACE(::testing::Message() << chunker.name() << " hold_back_last="
                                      << hold << " slices=" << starts.size());
    expect_exact(chunker, data, hold,
                 chunk_and_fingerprint_sliced(chunker, data, hold, starts));
  }
}

/// Starts at every `step` bytes from `first` on (plus 0).
std::vector<std::uint64_t> every(std::uint64_t first, std::uint64_t step,
                                 std::uint64_t n) {
  std::vector<std::uint64_t> starts{0};
  for (std::uint64_t a = first; a < n; a += step) starts.push_back(a);
  return starts;
}

TEST(ChunkPrepTest, MatchesSplitAndFingerprintOfForEveryChunker) {
  const Bytes data = testing::random_bytes(1 << 20, 31);
  for (const ChunkerKind kind : kAllKinds) {
    const auto chunker = make_chunker(kind);
    expect_exact(*chunker, data, false,
                 chunk_and_fingerprint(*chunker, data, false));
  }
}

TEST(ChunkPrepTest, LargeBuffersMatchSplitWhetherOrNotTheySlice) {
  // 4 MiB may slice, depending on how many cores are idle right now; the
  // result must not depend on it.
  const Bytes data = testing::random_bytes(4 << 20, 33);
  for (const ChunkerKind kind : kAllKinds) {
    const auto chunker = make_chunker(kind);
    for (const bool hold : {false, true}) {
      expect_exact(*chunker, data, hold,
                   chunk_and_fingerprint(*chunker, data, hold));
    }
  }
}

TEST(ChunkPrepTest, HoldBackLastDropsOnlyTheFinalChunk) {
  const Bytes data = testing::random_bytes(256 << 10, 32);
  const auto chunker = make_chunker(ChunkerKind::kGear);
  const auto all = chunk_and_fingerprint(*chunker, data, false);
  const auto held = chunk_and_fingerprint(*chunker, data, true);
  ASSERT_GE(all.size(), 2u);
  ASSERT_EQ(held.size() + 1, all.size());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].fp, all[i].fp);
    EXPECT_EQ(held[i].stream_offset, all[i].stream_offset);
  }
}

TEST(ChunkPrepTest, EmptyInputYieldsNoChunks) {
  const auto chunker = make_chunker(ChunkerKind::kGear);
  EXPECT_TRUE(chunk_and_fingerprint(*chunker, ByteView(), false).empty());
  EXPECT_TRUE(chunk_and_fingerprint(*chunker, ByteView(), true).empty());
}

TEST(ChunkPrepTest, SlicedMatchesSplitOnArbitraryStarts) {
  const Bytes data = testing::random_bytes((1 << 20) + 12345, 34);
  const std::uint64_t n = data.size();
  for (const ChunkerKind kind : kAllKinds) {
    const auto chunker = make_chunker(kind);
    expect_sliced_exact(*chunker, data, {0});
    expect_sliced_exact(*chunker, data, {0, n / 4, n / 2, 3 * n / 4});
    expect_sliced_exact(*chunker, data, {0, 1, n - 1});
    // Slices shorter than min_size (2 KiB) ...
    expect_sliced_exact(*chunker, data, every(100000, 777, 130000));
    // ... and shorter than the longest chunk (64 KiB).
    expect_sliced_exact(*chunker, data, every(5000, 40000, n));
  }
}

TEST(ChunkPrepTest, SliceStartOnATrueBoundaryMergesAtOnce) {
  const Bytes data = testing::random_bytes(1 << 20, 35);
  for (const ChunkerKind kind : kAllKinds) {
    const auto chunker = make_chunker(kind);
    const std::vector<ChunkRef> refs = chunker->split(data);
    ASSERT_GT(refs.size(), 60u);
    const std::vector<std::uint64_t> starts{0, refs[7].offset, refs[31].offset,
                                            refs[59].offset};
    const auto& resync = obs::MetricsRegistry::global().counter(
        "chunking.resync_bytes");
    const std::uint64_t before = resync.value();
    expect_sliced_exact(*chunker, data, starts);
    EXPECT_EQ(resync.value(), before) << chunker->name();
  }
}

TEST(ChunkPrepTest, ChainsThatNeverMergeStillMatchSplit) {
  // Periodic content gives every chain the same chunk length, so a slice
  // whose start is off the true chain's phase never meets it: the stitch
  // redoes the whole slice. Regression inputs for that worst case.
  const std::size_t n = (2 << 20) + 4321;
  Bytes zeros(n, 0);
  Bytes thirds(n);
  for (std::size_t i = 0; i < n; ++i) {
    thirds[i] = i % 3 == 0 ? 0 : static_cast<std::uint8_t>(0x5a + i % 3);
  }
  for (const Bytes* data : {&zeros, &thirds}) {
    for (const ChunkerKind kind : kAllKinds) {
      const auto chunker = make_chunker(kind);
      expect_sliced_exact(*chunker, *data, {0, 700001, 1400003});
      expect_sliced_exact(*chunker, *data, {0, 1 << 20});
      expect_exact(*chunker, *data, true,
                   chunk_and_fingerprint(*chunker, *data, true));
    }
  }
}

TEST(ChunkPrepTest, SliceCountersCountSlicesAndResyncedBytes) {
  const Bytes zeros(2 << 20, 0);
  const auto chunker = make_chunker(ChunkerKind::kFixed);  // 8 KiB chunks
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t slices0 = registry.counter("chunking.slices").value();
  const std::uint64_t resync0 =
      registry.counter("chunking.resync_bytes").value();
  // The second slice starts 100 bytes off the 8 KiB grid and never merges:
  // the stitch redoes all of it after the first slice's last chunk, which
  // starts at 1 MiB.
  chunk_and_fingerprint_sliced(*chunker, zeros, false,
                               std::vector<std::uint64_t>{0, (1 << 20) + 100});
  EXPECT_EQ(registry.counter("chunking.slices").value() - slices0, 2u);
  EXPECT_EQ(registry.counter("chunking.resync_bytes").value() - resync0,
            (1u << 20) - 8192);
}

/// Fixed 4 KiB chunks, except that a chunk at or past `fail_at` throws a
/// CheckFailure naming its offset. Counts the split_to calls that started
/// and finished, and holds the slice at offset 0 for a while, so a caller
/// that rethrew before joining would see it still running.
class FailingChunker final : public Chunker {
 public:
  FailingChunker(const std::uint8_t* base, std::uint64_t fail_at)
      : base_(base), fail_at_(fail_at) {}

  void split_to(ByteView data, const ChunkSink& sink) const override {
    started.fetch_add(1);
    struct Finish {
      std::atomic<int>& n;
      ~Finish() { n.fetch_add(1); }
    } finish{finished};
    const auto base = static_cast<std::uint64_t>(data.data() - base_);
    if (base == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (std::uint64_t off = 0; off < data.size(); off += kSize) {
      if (base + off >= fail_at_) {
        throw CheckFailure("fake failure at " + std::to_string(base + off));
      }
      const std::uint64_t len = std::min(kSize, data.size() - off);
      sink(ChunkRef{off, static_cast<std::uint32_t>(len)});
    }
  }
  std::string name() const override { return "failing"; }
  std::uint32_t max_chunk_size() const override { return kSize; }

  static constexpr std::uint64_t kSize = 4096;
  mutable std::atomic<int> started{0};
  mutable std::atomic<int> finished{0};

 private:
  const std::uint8_t* base_;
  std::uint64_t fail_at_;
};

TEST(ChunkPrepTest, SliceFailureKeepsItsTypeAndWaitsForEverySlice) {
  const Bytes data = testing::random_bytes(4 << 20, 36);
  const std::uint64_t mib = 1 << 20;
  // Slices 1-3 all fail; slice 1 reaches 1.5 MiB first in stream order.
  const FailingChunker chunker(data.data(), mib + mib / 2);
  try {
    chunk_and_fingerprint_sliced(
        chunker, data, false,
        std::vector<std::uint64_t>{0, mib, 2 * mib, 3 * mib});
    FAIL() << "expected a CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(typeid(e), typeid(CheckFailure));
    EXPECT_EQ(std::string(e.what()),
              "fake failure at " + std::to_string(mib + mib / 2));
    EXPECT_EQ(chunker.started.load(), 4);
    EXPECT_EQ(chunker.finished.load(), 4);
  }
}

}  // namespace
}  // namespace defrag
