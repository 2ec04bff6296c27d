// TSan-targeted stress tests for the concurrent substrate: ThreadPool,
// MetricsRegistry shard/merge, TraceRecorder emission and the sliced
// chunk_and_fingerprint.
//
// These are correctness tests on every build, but their real job is under
// -DDEFRAG_SANITIZE=thread in CI: they drive the exact access patterns the
// thread-safety annotations (common/sync.h) and the atomic memory-ordering
// contracts claim are safe, so a wrong relaxed/acquire/release choice or a
// missed lock shows up as a TSan report instead of a silent corruption.
#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/fingerprint.h"
#include "common/thread_pool.h"
#include "dedup/chunk_prep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/data.h"

namespace defrag {
namespace {

TEST(PipelineStress, ThreadPoolConcurrentSubmitters) {
  // submit() is documented safe from any thread: hammer it from several
  // submitter threads at once while the workers drain.
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasksEach = 2000;
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<void>>> futures(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      futures[s].reserve(kTasksEach);
      for (std::size_t i = 0; i < kTasksEach; ++i) {
        futures[s].push_back(pool.submit(
            [&sum] { sum.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) f.get();
  }

  EXPECT_EQ(sum.load(), kSubmitters * kTasksEach);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, kSubmitters * kTasksEach);
  EXPECT_EQ(stats.completed, kSubmitters * kTasksEach);
}

TEST(PipelineStress, ThreadPoolSubmitVisitsEachIndexOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 50000;
  std::vector<std::atomic<std::uint32_t>> visits(kN);
  std::vector<std::future<void>> futures;
  futures.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    futures.push_back(pool.submit(
        [&visits, i] { visits[i].fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : futures) f.get();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
  }
}

TEST(PipelineStress, MetricsShardsMergeConcurrently) {
  // The documented parallel pattern: each thread observes into its own
  // registry shard, then every thread folds its shard into one target
  // concurrently. merge_from() must serialize internally.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOps = 20000;
  obs::MetricsRegistry target;  // fresh target, not global()

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&target, t] {
      obs::MetricsRegistry shard;
      obs::Counter& c = shard.counter("stress.ops");
      obs::Histogram& h = shard.histogram("stress.latency_us");
      for (std::uint64_t i = 0; i < kOps; ++i) {
        c.add(1);
        h.observe(static_cast<double>((t + 1) * (i % 7)));
      }
      target.merge_from(shard);
    });
  }
  for (auto& th : threads) th.join();

  const obs::MetricsSnapshot snap = target.snapshot();
  EXPECT_EQ(snap.counter_or_zero("stress.ops"), kThreads * kOps);
  const obs::MetricEntry* h = snap.find("stress.latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist_stats.count(), kThreads * kOps);
}

TEST(PipelineStress, SharedCountersFromManyThreads) {
  // Counters/gauges on ONE registry are relaxed atomics, safe without
  // sharding; this is the access pattern every engine uses on the global
  // registry and the one TSan must bless.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOps = 50000;
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("stress.shared");
  obs::Gauge& g = reg.gauge("stress.gauge");

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        c.add(1);
        g.set(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kOps);
  EXPECT_TRUE(g.is_set());
}

TEST(PipelineStress, TraceRecorderConcurrentEmission) {
  // Spans and instants from many threads while another thread snapshots:
  // the recorder's single mutex must cover the event log AND the epoch.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kSpansEach = 2000;
  obs::TraceRecorder recorder;
  recorder.enable();

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)recorder.event_count();
      (void)recorder.events();
    }
  });

  std::vector<std::thread> emitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&] {
      for (std::size_t i = 0; i < kSpansEach; ++i) {
        obs::TraceSpan span("stress.span", "stress", recorder);
        recorder.record_instant("stress.instant", "stress");
      }
    });
  }
  for (auto& th : emitters) th.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  // One 'X' event per span + one 'i' per instant.
  EXPECT_EQ(recorder.event_count(), kThreads * kSpansEach * 2);
}

TEST(PipelineStress, ThreadPoolDestructionDrainsOutstandingWork) {
  // Destroying the pool with queued work must complete everything whose
  // future we hold — repeatedly, to shake out shutdown races.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    {
      ThreadPool pool(3);
      futures.reserve(100);
      for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
    }  // ~ThreadPool drains
    for (auto& f : futures) f.get();
    ASSERT_EQ(ran.load(), 100);
  }
}

TEST(PipelineStress, ConcurrentChunkAndFingerprintCallers) {
  // Several sessions slicing at once share one helper pool and the caller
  // claims slices too. Each caller runs the public routine (sliced or not,
  // as the idle cores allow) and the sliced form with four fixed slices,
  // which always goes through the pool.
  constexpr std::size_t kThreads = 4;
  const auto chunker = make_chunker(ChunkerKind::kGear);
  std::vector<Bytes> buffers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    buffers.push_back(testing::random_bytes((4 + t) << 20, 100 + t));
  }
  std::vector<std::vector<StreamChunk>> got(kThreads), sliced(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t n = buffers[t].size();
      got[t] = chunk_and_fingerprint(*chunker, buffers[t], false);
      sliced[t] = chunk_prep_detail::chunk_and_fingerprint_sliced(
          *chunker, buffers[t], false,
          std::vector<std::uint64_t>{0, n / 4 + 1, n / 2 + 3, 3 * n / 4 + 7});
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    const ByteView data(buffers[t]);
    const std::vector<ChunkRef> refs = chunker->split(data);
    ASSERT_EQ(got[t].size(), refs.size()) << "caller " << t;
    ASSERT_EQ(sliced[t].size(), refs.size()) << "caller " << t;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const Fingerprint fp =
          Fingerprint::of(data.subspan(refs[i].offset, refs[i].size));
      ASSERT_EQ(got[t][i].stream_offset, refs[i].offset);
      ASSERT_EQ(got[t][i].size, refs[i].size);
      ASSERT_EQ(got[t][i].fp, fp);
      ASSERT_EQ(sliced[t][i].stream_offset, refs[i].offset);
      ASSERT_EQ(sliced[t][i].size, refs[i].size);
      ASSERT_EQ(sliced[t][i].fp, fp);
    }
  }
}

}  // namespace
}  // namespace defrag
