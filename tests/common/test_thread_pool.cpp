#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace defrag {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&] { count.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&] { count.fetch_add(1); });
    }
  }  // destructor must wait for all 100
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), CheckFailure);
}

TEST(ThreadPoolTest, FailingTaskLeavesOtherTasksRunning) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(200);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    futures.push_back(pool.submit([&hits, i] {
      if (i == 0) throw std::runtime_error("one");
      hits[i].fetch_add(1);
    }));
  }
  EXPECT_THROW(futures[0].get(), std::runtime_error);
  for (std::size_t i = 1; i < futures.size(); ++i) futures[i].get();
  // The failure stayed in its own future: every other task ran once, and
  // the failed one still counts as completed.
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.submitted, hits.size());
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(ThreadPoolTest, SubmitTransportsNonStandardExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw 42; });
  try {
    (void)f.get();
    FAIL() << "expected the task's int";
  } catch (int v) {
    EXPECT_EQ(v, 42);
  }
}

}  // namespace
}  // namespace defrag
