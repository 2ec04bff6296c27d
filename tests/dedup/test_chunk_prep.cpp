#include "dedup/chunk_prep.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/fingerprint.h"
#include "testing/data.h"

namespace defrag {
namespace {

TEST(ChunkPrepTest, MatchesSplitAndFingerprintOfForEveryChunker) {
  const Bytes data = testing::random_bytes(1 << 20, 31);
  for (const ChunkerKind kind :
       {ChunkerKind::kRabin, ChunkerKind::kGear, ChunkerKind::kFixed}) {
    const auto chunker = make_chunker(kind);
    const std::vector<ChunkRef> refs = chunker->split(data);
    const std::vector<StreamChunk> chunks =
        chunk_and_fingerprint(*chunker, data, /*hold_back_last=*/false);
    ASSERT_EQ(chunks.size(), refs.size()) << chunker->name();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      ASSERT_EQ(chunks[i].stream_offset, refs[i].offset);
      ASSERT_EQ(chunks[i].size, refs[i].size);
      ASSERT_EQ(chunks[i].fp, Fingerprint::of(ByteView(data).subspan(
                                  refs[i].offset, refs[i].size)));
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

}  // namespace
}  // namespace defrag
