// Differential test: a ParallelIngestor::Stream fed piece by piece must
// ingest exactly what ingest_stream() ingests from the whole buffer — the
// same recipe (fingerprint and size sequence), chunk count, unique and
// duplicate bytes — for every chunker, at feed sizes around every carry
// edge (1 byte, under min_size, exactly max_size, one past it, a whole
// 4 MiB frame) and at seeded random splits. The same holds for pieces
// written straight into the stream's buffers with prepare()/commit(),
// including a pipeline kept full of pieces handed to the helper pool, and
// for a 20-generation series, down to the container layout, also while
// every helper thread is held busy, so the caller runs each job itself.
// Helpers run at nice 19 and leave the caller's priority alone. The
// stream's buffers stay within hardware_threads() x (max_size + the
// largest piece).
// Boundaries depend on the dispatched gear kernel, so CI also runs this
// suite with the scalar kernel forced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chunking/chunker.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/parallel_ingest.h"
#include "dedup/chunk_prep.h"
#include "dedup/restore_strategies.h"
#include "obs/metrics.h"
#include "storage/container.h"
#include "storage/recipe.h"
#include "testing/data.h"
#include "workload/backup_series.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

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

  /// The same, through prepare()/commit(): each piece is written into the
  /// stream's own buffer, as a session receives a BACKUP_DATA frame. The
  /// room is asked for with `slack` spare bytes, which commit() leaves out.
  Outcome committed(ByteView stream, const std::vector<std::size_t>& sizes,
                    std::size_t slack = 0) const {
    ParallelIngestor ingestor(params());
    Outcome o;
    ParallelIngestor::Stream s(ingestor, &o.recipe);
    std::size_t off = 0;
    for (std::size_t i = 0; off < stream.size(); ++i) {
      const std::size_t n =
          std::min(sizes[i % sizes.size()], stream.size() - off);
      std::uint8_t* const room = s.prepare(n + slack);
      std::copy_n(stream.begin() + static_cast<std::ptrdiff_t>(off), n, room);
      s.commit(n);
      off += n;
    }
    o.high_water = s.buffer_high_water();
    o.st = s.finish();
    return o;
  }

  /// The stream's buffer bound: hardware_threads() buffers, each a
  /// max_size prefix plus a piece, which holds under kPieceBytes plus the
  /// last commit's `largest` bytes.
  std::uint64_t bound(std::size_t largest) const {
    return hardware_threads() *
           (params().chunker.max_size + kPieceBytes + largest);
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
    EXPECT_LE(got.high_water, bound(feed)) << "feed " << feed;
  }

  const Bytes large = stream_with_repeats(4u << 20, 1u << 20, 72);
  const Outcome large_ref = whole(ByteView(large));
  ASSERT_GT(large_ref.st.dup_bytes, 0u);
  for (const std::size_t feed :
       {std::size_t{max}, std::size_t{max} + 1, std::size_t{4u << 20}}) {
    const Outcome got = fed(ByteView(large), {feed});
    expect_same(large_ref, got, "feed " + std::to_string(feed));
    EXPECT_LE(got.high_water, bound(feed)) << "feed " << feed;
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
    EXPECT_LE(got.high_water,
              bound(*std::max_element(sizes.begin(), sizes.end())))
        << "split seed " << seed;
  }
}

TEST_P(StreamFeedTest, PrepareCommitMatchesWholeBuffer) {
  const std::uint32_t max = params().chunker.max_size;
  const Bytes small = stream_with_repeats(3 * max / 2, max / 2, 74);
  const Outcome small_ref = whole(ByteView(small));
  const Outcome ones = committed(ByteView(small), {1});
  expect_same(small_ref, ones, "commit 1");
  EXPECT_LE(ones.high_water, bound(1));

  const Bytes large = stream_with_repeats(4u << 20, 1u << 20, 75);
  const Outcome large_ref = whole(ByteView(large));
  ASSERT_GT(large_ref.st.dup_bytes, 0u);
  for (const std::size_t piece :
       {std::size_t{max} - 1, std::size_t{max}, std::size_t{max} + 1,
        std::size_t{4u << 20}}) {
    const Outcome got = committed(ByteView(large), {piece});
    expect_same(large_ref, got, "commit " + std::to_string(piece));
    EXPECT_LE(got.high_water, bound(piece)) << "commit " << piece;
  }
  // Rooms asked for with spare bytes: commit() takes only what it is told.
  expect_same(large_ref, committed(ByteView(large), {max + 1, 7}, 100),
              "commit with slack");
  {
    // A small commit, then the rest fed whole.
    ParallelIngestor ingestor(params());
    Outcome got;
    ParallelIngestor::Stream s(ingestor, &got.recipe);
    std::copy_n(large.begin(), 100, s.prepare(100));
    s.commit(100);
    s.feed(ByteView(large).subspan(100));
    got.st = s.finish();
    expect_same(large_ref, got, "commit then feed");
  }

  // One 16 MiB piece, then the stream's last 123 bytes.
  const Bytes huge = stream_with_repeats(6u << 20, 4u << 20, 76);
  const Outcome huge_ref = whole(ByteView(huge));
  const Outcome one = committed(ByteView(huge), {16u << 20});
  expect_same(huge_ref, one, "commit 16 MiB");
  EXPECT_LE(one.high_water, bound(16u << 20));
}

TEST_P(StreamFeedTest, PrepareWithoutCommitIngestsNothing) {
  ParallelIngestor ingestor(params());
  Recipe recipe;
  ParallelIngestor::Stream s(ingestor, &recipe);
  const Bytes data = testing::random_bytes(3 * params().chunker.max_size, 77);
  std::copy(data.begin(), data.end(), s.prepare(data.size()));
  // The receive failed: nothing committed, and the next piece reuses the
  // room.
  const Bytes next = testing::random_bytes(1000, 78);
  std::copy(next.begin(), next.end(), s.prepare(next.size()));
  s.commit(next.size());
  const StreamIngestStats st = s.finish();
  EXPECT_EQ(st.logical_bytes, next.size());
  std::uint64_t bytes = 0;
  for (const RecipeEntry& e : recipe.entries()) bytes += e.location.size;
  EXPECT_EQ(bytes, next.size());
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
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

TEST_P(StreamFeedTest, FullPipelineOfRandomPiecesMatchesWholeBuffer) {
  // Each piece of at least kPieceBytes goes to the helper pool and the
  // stream runs with all its buffers in flight. Random commits, from a few
  // bytes to three pieces' worth, put far more pieces through the pipeline
  // than it has buffers.
  const Bytes stream = stream_with_repeats(
      (hardware_threads() + 2) * kPieceBytes, 3 * kPieceBytes / 2, 79);
  const Outcome ref = whole(ByteView(stream));
  ASSERT_GT(ref.st.dup_bytes, 0u);
  obs::Counter& slices =
      obs::MetricsRegistry::global().counter("chunking.slices");
  for (const std::uint64_t seed : {4u, 5u}) {
    Xoshiro256 rng(seed);
    std::vector<std::size_t> sizes(16);
    for (std::size_t& n : sizes) {
      n = rng.below(4) == 0 ? 1 + rng.below(params().chunker.max_size)
                            : 1 + rng.below(3 * kPieceBytes);
    }
    const std::uint64_t before = slices.value();
    const Outcome got = committed(ByteView(stream), sizes);
    expect_same(ref, got, "pipeline seed " + std::to_string(seed));
    EXPECT_LE(got.high_water,
              bound(*std::max_element(sizes.begin(), sizes.end())));
    if (hardware_threads() > 1) {
      EXPECT_GT(slices.value() - before, hardware_threads())
          << "pipeline seed " << seed;
    }
  }
}

TEST_P(StreamFeedTest, DestroyedMidPipelineLeavesNoClaimAndSealsContainers) {
  ParallelIngestor ingestor(params());
  const Bytes data =
      testing::random_bytes((hardware_threads() + 1) * kPieceBytes, 80);
  {
    Recipe recipe;
    ParallelIngestor::Stream s(ingestor, &recipe);
    for (std::size_t off = 0; off < data.size(); off += kPieceBytes) {
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(off),
                  kPieceBytes, s.prepare(kPieceBytes));
      s.commit(kPieceBytes);
    }
    // Destroyed with pieces queued or running, without finish().
  }
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  for (ContainerId id = 0; id < ingestor.store().container_count(); ++id) {
    EXPECT_TRUE(ingestor.store().sealed_visible(id)) << "container " << id;
  }
  // The ingestor keeps serving: the same bytes ingest and restore whole.
  Recipe recipe;
  const StreamIngestStats st = ingestor.ingest_stream(ByteView(data), &recipe);
  EXPECT_EQ(st.logical_bytes, data.size());
  Bytes restored;
  restore_with_strategy(ingestor.store(), recipe, ingestor.params().disk,
                        RestoreOptions{}, &restored);
  EXPECT_EQ(restored, data);
}

/// Ingest `generations` generations of one file system whole into one
/// ingestor and in 1 MiB + 4097 byte frames through the pipeline into
/// another: the recipes must agree entry for entry, container ids and
/// offsets included.
void expect_piped_series_matches_whole(int generations) {
  workload::FsParams fs;
  fs.initial_files = 24;
  fs.mean_file_bytes = 256u << 10;
  workload::SingleUserSeries series(1, fs);
  ParallelIngestor whole_ingestor;
  ParallelIngestor piped_ingestor;
  const std::size_t frame = kPieceBytes + 4097;
  for (int gen = 1; gen <= generations; ++gen) {
    const workload::Backup backup = series.next();
    const ByteView stream(backup.stream);
    Recipe want;
    whole_ingestor.ingest_stream(stream, &want);
    Recipe got;
    ParallelIngestor::Stream s(piped_ingestor, &got);
    for (std::size_t off = 0; off < stream.size(); off += frame) {
      const std::size_t n = std::min(frame, stream.size() - off);
      std::copy_n(stream.begin() + static_cast<std::ptrdiff_t>(off), n,
                  s.prepare(n));
      s.commit(n);
    }
    s.finish();
    ASSERT_EQ(got.entries().size(), want.entries().size()) << "gen " << gen;
    for (std::size_t i = 0; i < want.entries().size(); ++i) {
      ASSERT_EQ(got.entries()[i].fp, want.entries()[i].fp)
          << "gen " << gen << ", entry " << i;
      ASSERT_EQ(got.entries()[i].location, want.entries()[i].location)
          << "gen " << gen << ", entry " << i;
    }
  }
  EXPECT_EQ(piped_ingestor.store().container_count(),
            whole_ingestor.store().container_count());
}

TEST(StreamPipelineTest, SeriesThroughCommitsMatchesIngestStreamLayout) {
  expect_piped_series_matches_whole(20);
}

/// Fixed 4 KiB chunks, cut only once the gate opens. Records the nice
/// value of the thread that ran split_to (Linux only).
class GatedChunker final : public Chunker {
 public:
  void split_to(ByteView data, const ChunkSink& sink) const override {
#if defined(__linux__)
    nice_seen.store(::getpriority(PRIO_PROCESS,
                                  static_cast<id_t>(::gettid())));
#endif
    gate_.wait();
    for (std::uint64_t off = 0; off < data.size(); off += kSize) {
      const std::uint64_t len =
          std::min<std::uint64_t>(kSize, data.size() - off);
      sink(ChunkRef{off, static_cast<std::uint32_t>(len)});
    }
  }
  std::string name() const override { return "gated"; }
  std::uint32_t max_chunk_size() const override { return kSize; }

  void open() const { gate_.count_down(); }

  static constexpr std::uint64_t kSize = 4096;
  mutable std::atomic<int> nice_seen{0};

 private:
  mutable std::latch gate_{1};
};

/// Jobs on a GatedChunker, posted to the helper pool. The destructor opens
/// the gate and settles every job not taken, so no helper stays blocked
/// past a failed assertion.
class GatedJobs {
 public:
  GatedJobs(std::size_t count, ByteView bytes) {
    for (std::size_t k = 0; k < count; ++k) {
      jobs_.push_back(std::make_shared<PieceJob>(chunker_, bytes, 0,
                                                 bytes.size(), true));
      PieceJob::post(jobs_.back());
    }
  }
  ~GatedJobs() {
    open();
    for (const std::shared_ptr<PieceJob>& job : jobs_) {
      if (job != nullptr) job->settle(true);
    }
  }
  GatedJobs(const GatedJobs&) = delete;
  GatedJobs& operator=(const GatedJobs&) = delete;

  /// Whether every job was claimed by a helper within a minute.
  bool wait_all_running() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    for (const std::shared_ptr<PieceJob>& job : jobs_) {
      while (!job->running()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }
  void open() {
    if (!opened_) chunker_.open();
    opened_ = true;
  }
  const GatedChunker& chunker() const { return chunker_; }
  /// Take job `k`; whether take() ran it on this thread.
  bool take(std::size_t k, PieceJob::Chunks& out) {
    const std::shared_ptr<PieceJob> job = std::move(jobs_[k]);
    out = job->take();
    return job->ran_here();
  }

 private:
  GatedChunker chunker_;
  std::vector<std::shared_ptr<PieceJob>> jobs_;
  bool opened_ = false;
};

TEST(StreamPipelineTest, FinishesWhileEveryHelperIsBusy) {
  // Every helper thread is held by a job that blocks until released, so
  // each piece the pipeline posts must run on the caller, through take().
  const Bytes held_bytes(64 << 10, 0);
  GatedJobs held(hardware_threads() - 1, ByteView(held_bytes));
  ASSERT_TRUE(held.wait_all_running());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t slices = registry.counter("chunking.slices").value();
  const std::uint64_t caller =
      registry.counter("chunking.caller_jobs").value();
  expect_piped_series_matches_whole(4);
  const std::uint64_t posted =
      registry.counter("chunking.slices").value() - slices;
  EXPECT_GT(posted, 0u);
  EXPECT_EQ(registry.counter("chunking.caller_jobs").value() - caller,
            hardware_threads() > 1 ? posted : 0u);
}

TEST(StreamPipelineTest, HelpersRunAtLowestPriorityAndTheCallerKeepsItsOwn) {
#if !defined(__linux__)
  GTEST_SKIP() << "helper priority is set on Linux only";
#else
  if (hardware_threads() < 2) GTEST_SKIP() << "no helper threads";
  const auto own_nice = [] {
    return ::getpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()));
  };
  const int before = own_nice();
  const Bytes bytes(64 << 10, 0);
  GatedJobs gated(1, ByteView(bytes));
  ASSERT_TRUE(gated.wait_all_running());
  gated.open();
  PieceJob::Chunks got;
  EXPECT_FALSE(gated.take(0, got));
  EXPECT_EQ(got.chunks.size(), bytes.size() / GatedChunker::kSize);
  EXPECT_EQ(gated.chunker().nice_seen.load(), 19);
  EXPECT_EQ(own_nice(), before);
#endif
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
