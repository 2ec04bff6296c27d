// A small fixed-size thread pool. Its user in src/ is the helper pool of
// the sliced chunk_and_fingerprint (dedup/chunk_prep.h), which submits
// claim loops and joins its slices itself rather than through
// parallel_for(), whose caller only waits. Tasks are type-erased
// std::move_only_function-style closures.
//
// Thread safety: submit()/parallel_for()/stats() may be called from any
// thread, concurrently with the workers. The queue and lifecycle flags are
// guarded by mu_ and statically checked via the annotations in
// common/sync.h; the destructor must not race with submit() (callers own
// that ordering, as with any object's destruction).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace defrag {

/// Aggregate failure of a ThreadPool::parallel_for(): thrown after *every*
/// worker has joined, carrying each failed worker's message (so one bad
/// index cannot hide the others) and the failure count.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(const std::string& what, std::size_t failures)
      : std::runtime_error(what), failures_(failures) {}

  /// Number of worker tasks that terminated with an exception.
  std::size_t failures() const { return failures_; }

 private:
  std::size_t failures_;
};

class ThreadPool {
 public:
  /// Point-in-time task accounting (see stats()).
  struct Stats {
    std::uint64_t submitted = 0;  // tasks accepted by submit()
    std::uint64_t completed = 0;  // tasks whose closure returned or threw
  };

  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool() noexcept;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    // The completion count must be bumped BEFORE the packaged_task fulfills
    // the future — future::get() unblocks the moment the promise is set, and
    // stats() promises completed == submitted once every future has been
    // waited on. The guard's destructor runs during unwinding too, so a
    // throwing fn still counts (its exception lands in the future).
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(fn)]() mutable -> R {
          struct Done {
            ThreadPool* pool;
            ~Done() noexcept {
              MutexLock lock(pool->mu_);
              ++pool->stats_.completed;
            }
          } done{this};
          return fn();
        });
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
      ++stats_.submitted;
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// If any worker throws, every worker is still joined first (no task is
  /// left running against dead stack frames), then a ParallelForError
  /// aggregating all failures is thrown.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Snapshot of the task counters; submitted >= completed always, and they
  /// are equal once every returned future has been waited on.
  Stats stats() const DEFRAG_EXCLUDES(mu_);

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop() DEFRAG_EXCLUDES(mu_);

  // Leaf of the lock hierarchy: submit() may be reached from under any
  // data-plane lock, and nothing is acquired while mu_ is held.
  mutable Mutex mu_{lock_order::kThreadPool};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ DEFRAG_GUARDED_BY(mu_);
  bool stopping_ DEFRAG_GUARDED_BY(mu_) = false;
  Stats stats_ DEFRAG_GUARDED_BY(mu_);
  // Written only by the constructor; workers never touch it. Not guarded:
  // thread_count() is safe exactly because construction happens-before any
  // other use of the pool.
  std::vector<std::thread> workers_;
};

}  // namespace defrag
