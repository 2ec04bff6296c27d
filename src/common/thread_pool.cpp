#include "common/thread_pool.h"

#include "common/check.h"

namespace defrag {

ThreadPool::ThreadPool(std::size_t threads) {
  DEFRAG_CHECK(threads >= 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    // throw-graph: boundary=ThreadPool::worker_loop
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() noexcept {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Stats ThreadPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The closure never throws: packaged_task captures any exception from
    // the user fn into the future, and the completion counter is bumped by
    // the guard submit() wrapped around the fn (ordered before the future
    // is fulfilled — see stats()).
    task();
  }
}

}  // namespace defrag
