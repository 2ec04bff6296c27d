#include "core/parallel_ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/fingerprint.h"
#include "dedup/restore_strategies.h"
#include "obs/metrics.h"
#include "storage/recipe.h"
#include "testing/data.h"

namespace defrag {
namespace {

/// Ground-truth unique bytes of a set of streams: chunk with the same
/// chunker configuration and count each fingerprint's bytes once.
std::uint64_t reference_unique_bytes(const ParallelIngestParams& params,
                                     const std::vector<ByteView>& streams) {
  const auto chunker = make_chunker(params.chunker_kind, params.chunker);
  std::unordered_set<Fingerprint> seen;
  std::uint64_t unique = 0;
  for (const ByteView stream : streams) {
    chunker->split_to(stream, [&](const ChunkRef& r) {
      if (seen.insert(Fingerprint::of(stream.subspan(r.offset, r.size)))
              .second) {
        unique += r.size;
      }
    });
  }
  return unique;
}

/// Ingest each stream through ingest_stream() on a thread of its own, as
/// concurrent service sessions do, and join them all. With a non-null
/// `recipes`, recipes[i] receives stream i's recipe. After the join no
/// claim may be left unpublished: every stream publishes (or abandons and
/// re-resolves) its claims before ingest_stream() returns.
std::vector<StreamIngestStats> ingest_concurrently(
    ParallelIngestor& ingestor, const std::vector<ByteView>& streams,
    std::vector<Recipe>* recipes = nullptr) {
  std::vector<StreamIngestStats> stats(streams.size());
  if (recipes != nullptr) {
    recipes->clear();
    recipes->resize(streams.size());
  }
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back([&, i] {
      stats[i] = ingestor.ingest_stream(
          streams[i], recipes != nullptr ? &(*recipes)[i] : nullptr);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  return stats;
}

struct Totals {
  std::uint64_t logical_bytes = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t dup_bytes = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t pending_dup_chunks = 0;
};

Totals sum(const std::vector<StreamIngestStats>& stats) {
  Totals t;
  for (const StreamIngestStats& st : stats) {
    t.logical_bytes += st.logical_bytes;
    t.unique_bytes += st.unique_bytes;
    t.dup_bytes += st.dup_bytes;
    t.chunk_count += st.chunk_count;
    t.unique_chunks += st.unique_chunks;
    t.pending_dup_chunks += st.pending_dup_chunks;
  }
  return t;
}

TEST(ParallelIngestTest, EmptyStreamIsZero) {
  ParallelIngestor ingestor;
  Recipe recipe;
  const StreamIngestStats st = ingestor.ingest_stream(ByteView(), &recipe);
  EXPECT_EQ(st.logical_bytes, 0u);
  EXPECT_EQ(st.chunk_count, 0u);
  EXPECT_EQ(st.unique_bytes, 0u);
  EXPECT_EQ(st.dup_bytes, 0u);
  EXPECT_TRUE(recipe.entries().empty());
  EXPECT_EQ(ingestor.index().size(), 0u);
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
}

TEST(ParallelIngestTest, SingleStreamMatchesReference) {
  const Bytes data = testing::random_bytes(2 << 20, 500);
  ParallelIngestParams params;
  ParallelIngestor ingestor(params);
  const StreamIngestStats st = ingestor.ingest_stream(ByteView(data));

  EXPECT_EQ(st.logical_bytes, data.size());
  EXPECT_EQ(st.unique_bytes, reference_unique_bytes(params, {ByteView(data)}));
  EXPECT_EQ(st.unique_bytes + st.dup_bytes, st.logical_bytes);
  EXPECT_EQ(ingestor.index().size(), st.unique_chunks);
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
}

// The determinism guarantee of the claim/publish protocol: identical
// streams racing each other must dedup to exactly one stream's worth of
// unique bytes, no matter how the threads interleave — so repeated runs
// give bit-identical totals.
TEST(ParallelIngestTest, IdenticalConcurrentStreamsDedupDeterministically) {
  const Bytes data = testing::random_bytes(1 << 20, 501);
  ParallelIngestParams params;
  const std::uint64_t reference =
      reference_unique_bytes(params, {ByteView(data)});

  for (int run = 0; run < 5; ++run) {
    ParallelIngestor ingestor(params);
    const Totals t = sum(ingest_concurrently(
        ingestor, {ByteView(data), ByteView(data), ByteView(data)}));
    EXPECT_EQ(t.logical_bytes, 3 * data.size());
    EXPECT_EQ(t.unique_bytes, reference) << "run " << run;
    EXPECT_EQ(t.dup_bytes, t.logical_bytes - reference);
  }
}

TEST(ParallelIngestTest, DisjointStreamsShareNothing) {
  const Bytes a = testing::random_bytes(512 * 1024, 502);
  const Bytes b = testing::random_bytes(512 * 1024, 503);
  ParallelIngestParams params;
  ParallelIngestor ingestor(params);
  const Totals t =
      sum(ingest_concurrently(ingestor, {ByteView(a), ByteView(b)}));
  EXPECT_EQ(t.unique_bytes,
            reference_unique_bytes(params, {ByteView(a), ByteView(b)}));
  // Random content: essentially everything is unique.
  EXPECT_EQ(t.dup_bytes, 0u);
  EXPECT_GE(ingestor.store().container_count(), 1u);
}

// kPending accounting: every duplicate resolved against an in-flight claim
// is charged exactly one published-location lookup, on top of the one
// lookup every chunk pays, and every chunk stored is published exactly
// once. Identical concurrent streams are the scenario that provokes
// kPending races; the invariants must hold whether a given run hit the
// race or not.
TEST(ParallelIngestTest, PendingDuplicatesAreResolvedAndCharged) {
  const Bytes data = testing::random_bytes(1 << 20, 506);
  auto& lookups = obs::MetricsRegistry::global().counter("index.paged.lookups");
  for (int run = 0; run < 5; ++run) {
    ParallelIngestor ingestor;
    const std::uint64_t before = lookups.value();
    const std::vector<StreamIngestStats> stats = ingest_concurrently(
        ingestor, {ByteView(data), ByteView(data), ByteView(data)});
    for (const StreamIngestStats& st : stats) {
      EXPECT_LE(st.pending_dup_chunks, st.dup_chunks);
    }
    const Totals t = sum(stats);
    EXPECT_EQ(lookups.value() - before, t.chunk_count + t.pending_dup_chunks)
        << "run " << run;
    EXPECT_EQ(ingestor.index().size(), t.unique_chunks) << "run " << run;
  }
}

TEST(ParallelIngestTest, PerStreamStatsAddUp) {
  const Bytes data = testing::random_bytes(1 << 20, 505);
  ParallelIngestor ingestor;
  const std::vector<StreamIngestStats> stats =
      ingest_concurrently(ingestor, {ByteView(data), ByteView(data)});
  for (const StreamIngestStats& st : stats) {
    EXPECT_EQ(st.logical_bytes, data.size());
    EXPECT_EQ(st.unique_chunks + st.dup_chunks, st.chunk_count);
    EXPECT_EQ(st.unique_bytes + st.dup_bytes, st.logical_bytes);
    EXPECT_GT(st.sim_seconds, 0.0);
  }
}

// Recipes built under the race stay restore-grade: one entry per chunk in
// stream order with a published location even for duplicates won by
// another stream, and exactly one copy of the shared bytes is unique.
void expect_concurrent_recipes_restore(const std::vector<ByteView>& streams) {
  ParallelIngestor ingestor;
  std::vector<Recipe> recipes;
  const Totals t = sum(ingest_concurrently(ingestor, streams, &recipes));
  EXPECT_EQ(t.unique_bytes,
            reference_unique_bytes(ingestor.params(), streams));
  EXPECT_GT(t.dup_bytes, 0u);  // shared bytes dedup across streams

  const RestoreOptions options;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(recipes[i].logical_bytes(), streams[i].size());
    Bytes out;
    restore_with_strategy(ingestor.store(), recipes[i],
                          ingestor.params().disk, options, &out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), streams[i].begin(),
                           streams[i].end()))
        << "stream " << i;
  }
}

// (a, b, a): two streams share a prefix, and one stream races itself.
TEST(ParallelIngestTest, BatchRecipesRestoreBitIdentically) {
  const Bytes prefix = testing::random_bytes(512 * 1024, 507);
  Bytes a = prefix;
  const Bytes tail_a = testing::random_bytes(128 * 1024, 508);
  a.insert(a.end(), tail_a.begin(), tail_a.end());
  Bytes b = prefix;
  const Bytes tail_b = testing::random_bytes(128 * 1024, 509);
  b.insert(b.end(), tail_b.begin(), tail_b.end());
  expect_concurrent_recipes_restore({ByteView(a), ByteView(b), ByteView(a)});
}

// Four streams sharing a prefix, each with a distinct tail.
TEST(ParallelIngestTest, ConcurrentIngestStreamCallsAreRestoreGrade) {
  const Bytes shared = testing::random_bytes(512 * 1024, 510);
  std::vector<Bytes> datas(4);
  std::vector<ByteView> streams;
  for (std::size_t t = 0; t < datas.size(); ++t) {
    datas[t] = shared;
    const Bytes tail = testing::random_bytes(64 * 1024, 511 + t);
    datas[t].insert(datas[t].end(), tail.begin(), tail.end());
    streams.emplace_back(datas[t]);
  }
  expect_concurrent_recipes_restore(streams);
}

}  // namespace
}  // namespace defrag
