// Differential test: a ParallelIngestor::Stream fed piece by piece must
// ingest exactly what ingest_stream() ingests from the whole buffer — the
// same recipe (fingerprint and size sequence), chunk count, unique and
// duplicate bytes — for every chunker, at feed sizes around every carry
// edge (1 byte, under min_size, exactly max_size, one past it, a whole
// 4 MiB frame) and at seeded random splits.
// Boundaries depend on the dispatched gear kernel, so CI also runs this
// suite with the scalar kernel forced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chunking/chunker.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/parallel_ingest.h"
#include "storage/recipe.h"
#include "testing/data.h"

namespace defrag {
namespace {

/// A stream with internal duplicates: A + B + A + C.
Bytes stream_with_repeats(std::size_t a, std::size_t b, std::uint64_t seed) {
  const Bytes block_a = testing::random_bytes(a, seed);
  const Bytes block_b = testing::random_bytes(b, seed + 1);
  const Bytes block_c = testing::random_bytes(123, seed + 2);
  Bytes s;
  for (const Bytes* part : {&block_a, &block_b, &block_a, &block_c}) {
    s.insert(s.end(), part->begin(), part->end());
  }
  return s;
}

struct Outcome {
  StreamIngestStats st;
  Recipe recipe;
  std::uint64_t high_water = 0;
};

class StreamFeedTest : public ::testing::TestWithParam<ChunkerKind> {
 protected:
  ParallelIngestParams params() const {
    ParallelIngestParams p;
    p.chunker_kind = GetParam();
    return p;
  }

  Outcome whole(ByteView stream) const {
    ParallelIngestor ingestor(params());
    Outcome o;
    o.st = ingestor.ingest_stream(stream, &o.recipe);
    return o;
  }

  /// Feed `stream` in pieces of the given sizes (cycled) into a fresh
  /// ingestor.
  Outcome fed(ByteView stream, const std::vector<std::size_t>& sizes) const {
    ParallelIngestor ingestor(params());
    Outcome o;
    ParallelIngestor::Stream s(ingestor, &o.recipe);
    std::size_t off = 0;
    for (std::size_t i = 0; off < stream.size(); ++i) {
      const std::size_t n =
          std::min(sizes[i % sizes.size()], stream.size() - off);
      s.feed(stream.subspan(off, n));
      off += n;
    }
    o.high_water = s.buffer_high_water();
    o.st = s.finish();
    return o;
  }

  static void expect_same(const Outcome& want, const Outcome& got,
                          const std::string& what) {
    EXPECT_EQ(got.st.logical_bytes, want.st.logical_bytes) << what;
    EXPECT_EQ(got.st.chunk_count, want.st.chunk_count) << what;
    EXPECT_EQ(got.st.unique_chunks, want.st.unique_chunks) << what;
    EXPECT_EQ(got.st.unique_bytes, want.st.unique_bytes) << what;
    EXPECT_EQ(got.st.dup_chunks, want.st.dup_chunks) << what;
    EXPECT_EQ(got.st.dup_bytes, want.st.dup_bytes) << what;
    const auto& w = want.recipe.entries();
    const auto& g = got.recipe.entries();
    ASSERT_EQ(g.size(), w.size()) << what;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i].fp, w[i].fp) << what << ", entry " << i;
      ASSERT_EQ(g[i].location.size, w[i].location.size)
          << what << ", entry " << i;
    }
  }
};

TEST_P(StreamFeedTest, EdgeFeedSizesMatchWholeBuffer) {
  const ChunkerParams cp = params().chunker;
  const std::uint32_t max = cp.max_size;
  // Byte-sized feeds re-chunk the carry every call: keep that stream short.
  const Bytes small = stream_with_repeats(3 * max / 2, max / 2, 71);
  const Outcome small_ref = whole(ByteView(small));
  ASSERT_GT(small_ref.st.dup_bytes, 0u);
  for (const std::size_t feed : {std::size_t{1}, std::size_t{7},
                                 std::size_t{cp.min_size - 1}}) {
    const Outcome got = fed(ByteView(small), {feed});
    expect_same(small_ref, got, "feed " + std::to_string(feed));
    EXPECT_LE(got.high_water, feed + max) << "feed " << feed;
  }

  const Bytes large = stream_with_repeats(4u << 20, 1u << 20, 72);
  const Outcome large_ref = whole(ByteView(large));
  ASSERT_GT(large_ref.st.dup_bytes, 0u);
  for (const std::size_t feed :
       {std::size_t{max}, std::size_t{max} + 1, std::size_t{4u << 20}}) {
    const Outcome got = fed(ByteView(large), {feed});
    expect_same(large_ref, got, "feed " + std::to_string(feed));
    EXPECT_LE(got.high_water, feed + max) << "feed " << feed;
  }
}

TEST_P(StreamFeedTest, SeededRandomSplitsMatchWholeBuffer) {
  const std::uint32_t max = params().chunker.max_size;
  const Bytes stream = stream_with_repeats(1u << 20, 256u << 10, 73);
  const Outcome ref = whole(ByteView(stream));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256 rng(seed);
    std::vector<std::size_t> sizes(64);
    for (std::size_t& n : sizes) n = 1 + rng.below(3 * max);
    const Outcome got = fed(ByteView(stream), sizes);
    expect_same(ref, got, "split seed " + std::to_string(seed));
    EXPECT_LE(got.high_water, *std::max_element(sizes.begin(), sizes.end()) +
                                  max)
        << "split seed " << seed;
  }
}

TEST_P(StreamFeedTest, EmptyFeedsAndEmptyStreamAreNoOps) {
  ParallelIngestor ingestor(params());
  Recipe recipe;
  ParallelIngestor::Stream s(ingestor, &recipe);
  s.feed(ByteView());
  const StreamIngestStats st = s.finish();
  EXPECT_EQ(st.logical_bytes, 0u);
  EXPECT_EQ(st.chunk_count, 0u);
  EXPECT_TRUE(recipe.entries().empty());
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
}

std::string param_name(const ::testing::TestParamInfo<ChunkerKind>& p) {
  switch (p.param) {
    case ChunkerKind::kRabin:
      return "rabin";
    case ChunkerKind::kGear:
      return "gear";
    case ChunkerKind::kFixed:
      return "fixed";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(Chunkers, StreamFeedTest,
                         ::testing::Values(ChunkerKind::kRabin,
                                           ChunkerKind::kGear,
                                           ChunkerKind::kFixed),
                         param_name);

}  // namespace
}  // namespace defrag
