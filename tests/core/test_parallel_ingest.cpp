#include "core/parallel_ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
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

TEST(ParallelIngestTest, EmptyStreamListIsZero) {
  ParallelIngestor ingestor;
  const ParallelIngestResult res = ingestor.ingest({});
  EXPECT_EQ(res.logical_bytes, 0u);
  EXPECT_EQ(res.unique_bytes, 0u);
  EXPECT_TRUE(res.streams.empty());
}

TEST(ParallelIngestTest, SingleStreamMatchesReference) {
  const Bytes data = testing::random_bytes(2 << 20, 500);
  ParallelIngestParams params;
  ParallelIngestor ingestor(params);
  const ParallelIngestResult res = ingestor.ingest({ByteView(data)});

  EXPECT_EQ(res.logical_bytes, data.size());
  EXPECT_EQ(res.unique_bytes,
            reference_unique_bytes(params, {ByteView(data)}));
  EXPECT_EQ(res.unique_bytes + res.dup_bytes, res.logical_bytes);
  EXPECT_EQ(ingestor.index().size(),
            res.streams[0].unique_chunks);
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
}

// The determinism guarantee of the claim/publish protocol: two identical
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
    const ParallelIngestResult res =
        ingestor.ingest({ByteView(data), ByteView(data), ByteView(data)});
    EXPECT_EQ(res.logical_bytes, 3 * data.size());
    EXPECT_EQ(res.unique_bytes, reference) << "run " << run;
    EXPECT_EQ(res.dup_bytes, res.logical_bytes - reference);
    EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  }
}

TEST(ParallelIngestTest, DisjointStreamsShareNothing) {
  const Bytes a = testing::random_bytes(512 * 1024, 502);
  const Bytes b = testing::random_bytes(512 * 1024, 503);
  ParallelIngestParams params;
  ParallelIngestor ingestor(params);
  const ParallelIngestResult res =
      ingestor.ingest({ByteView(a), ByteView(b)});
  EXPECT_EQ(res.unique_bytes,
            reference_unique_bytes(params, {ByteView(a), ByteView(b)}));
  // Random content: essentially everything is unique.
  EXPECT_EQ(res.dup_bytes, 0u);
  EXPECT_GE(ingestor.store().container_count(), 1u);
}

// kPending accounting: every duplicate resolved against an in-flight claim
// is charged a published-location lookup post-join, and the
// `dedup.parallel.pending_resolved` counter advances by exactly the number
// of pending duplicates the streams reported. Identical concurrent streams
// are the scenario that provokes kPending races; the invariant must hold
// whether a given run hit the race or not.
TEST(ParallelIngestTest, PendingDuplicatesAreResolvedAndCharged) {
  const Bytes data = testing::random_bytes(1 << 20, 506);
  auto& pending_counter =
      obs::MetricsRegistry::global().counter("dedup.parallel.pending_resolved");
  for (int run = 0; run < 5; ++run) {
    ParallelIngestor ingestor;
    const std::uint64_t before = pending_counter.value();
    const ParallelIngestResult res =
        ingestor.ingest({ByteView(data), ByteView(data), ByteView(data)});
    std::uint64_t pending = 0;
    for (const StreamIngestStats& st : res.streams) {
      EXPECT_LE(st.pending_dup_chunks, st.dup_chunks);
      pending += st.pending_dup_chunks;
    }
    EXPECT_EQ(pending_counter.value() - before, pending) << "run " << run;
    // Post-join resolution published every claim.
    EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  }
}

TEST(ParallelIngestTest, PerStreamStatsAddUp) {
  const Bytes data = testing::random_bytes(1 << 20, 505);
  ParallelIngestor ingestor;
  const ParallelIngestResult res =
      ingestor.ingest({ByteView(data), ByteView(data)});
  ASSERT_EQ(res.streams.size(), 2u);
  std::uint64_t unique = 0;
  std::uint64_t dup = 0;
  std::uint64_t chunks = 0;
  for (const StreamIngestStats& st : res.streams) {
    EXPECT_EQ(st.unique_chunks + st.dup_chunks, st.chunk_count);
    EXPECT_EQ(st.unique_bytes + st.dup_bytes, st.logical_bytes);
    EXPECT_GT(st.sim_seconds, 0.0);
    unique += st.unique_bytes;
    dup += st.dup_bytes;
    chunks += st.chunk_count;
  }
  EXPECT_EQ(unique, res.unique_bytes);
  EXPECT_EQ(dup, res.dup_bytes);
  EXPECT_EQ(chunks, res.chunk_count);
  EXPECT_GT(res.wall_seconds, 0.0);
}

// The recipes out-param makes every stream restore-grade: one entry per
// chunk in stream order with a published location even for duplicates won
// by another stream.
TEST(ParallelIngestTest, BatchRecipesRestoreBitIdentically) {
  const Bytes shared = testing::random_bytes(512 * 1024, 507);
  Bytes a = shared;
  const Bytes tail_a = testing::random_bytes(128 * 1024, 508);
  a.insert(a.end(), tail_a.begin(), tail_a.end());
  Bytes b = shared;
  const Bytes tail_b = testing::random_bytes(128 * 1024, 509);
  b.insert(b.end(), tail_b.begin(), tail_b.end());

  ParallelIngestor ingestor;
  std::vector<Recipe> recipes;
  const std::vector<ByteView> streams = {ByteView(a), ByteView(b),
                                         ByteView(a)};
  const ParallelIngestResult res = ingestor.ingest(streams, &recipes);
  ASSERT_EQ(recipes.size(), streams.size());
  EXPECT_GT(res.dup_bytes, 0u);  // shared prefix dedups across streams

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

// ingest_stream() is the service entry point: many external threads, no
// batch barrier, recipes that must stay restore-grade under the race.
TEST(ParallelIngestTest, ConcurrentIngestStreamCallsAreRestoreGrade) {
  const Bytes shared = testing::random_bytes(512 * 1024, 510);
  constexpr std::size_t kThreads = 4;

  std::vector<Bytes> datas(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    datas[t] = shared;
    const Bytes tail = testing::random_bytes(64 * 1024, 511 + t);
    datas[t].insert(datas[t].end(), tail.begin(), tail.end());
  }

  ParallelIngestor ingestor;
  std::vector<Recipe> recipes(kThreads);
  std::vector<StreamIngestStats> stats(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stats[t] = ingestor.ingest_stream(ByteView(datas[t]), &recipes[t]);
    });
  }
  for (std::thread& th : threads) th.join();

  // Deterministic dedup: exactly one copy of the shared prefix is unique.
  std::uint64_t unique = 0;
  for (const StreamIngestStats& st : stats) unique += st.unique_bytes;
  std::vector<ByteView> views;
  for (const Bytes& d : datas) views.push_back(ByteView(d));
  EXPECT_EQ(unique, reference_unique_bytes(ingestor.params(), views));
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);

  const RestoreOptions options;
  for (std::size_t t = 0; t < kThreads; ++t) {
    Bytes out;
    restore_with_strategy(ingestor.store(), recipes[t],
                          ingestor.params().disk, options, &out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), datas[t].begin(),
                           datas[t].end()))
        << "stream " << t;
  }
}

}  // namespace
}  // namespace defrag
