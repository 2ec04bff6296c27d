// Clang thread-safety–annotated synchronization primitives.
//
// Every mutex in the repo is a defrag::Mutex, every scope-lock a
// defrag::MutexLock, and every guarded field carries DEFRAG_GUARDED_BY, so a
// Clang build with -Wthread-safety (wired into defrag_compile_options and
// enforced by CI) statically proves lock discipline. Under GCC and other
// compilers the annotations expand to nothing and the wrappers are
// zero-overhead shims over <mutex>/<condition_variable>.
//
// Annotation vocabulary (subset of Clang's capability analysis we use):
//   DEFRAG_GUARDED_BY(mu)    field is only read/written while holding mu
//   DEFRAG_PT_GUARDED_BY(mu) pointee (not the pointer) is guarded by mu
//   DEFRAG_REQUIRES(mu)      function must be called with mu held
//   DEFRAG_ACQUIRE(mu) / DEFRAG_RELEASE(mu)
//                            function acquires/releases mu
//   DEFRAG_EXCLUDES(mu)      function must be called with mu NOT held
//   DEFRAG_ACQUIRED_BEFORE(mu) / DEFRAG_ACQUIRED_AFTER(mu)
//                            declared acquisition order between two mutexes
//                            (parsed by tools/lock_graph_lint.py; Clang only
//                            analyzes these under -Wthread-safety-beta)
//   DEFRAG_NO_THREAD_SAFETY_ANALYSIS
//                            opt a function out (justify in a comment)
//
// Lock ordering: every long-lived Mutex is additionally constructed with a
// rank from common/lock_order.h. The ranks declare the one global
// acquisition order; tools/lock_graph_lint.py proves the declared graph
// acyclic and scans src/ for multi-lock scopes that violate it, and the
// debug lock-order validator (sync.cpp) cross-checks the actual runtime
// acquisition order of every ranked mutex against the same declaration.
//
// Lock-free code (obs::Counter/Gauge) is outside this analysis;
// its contract is documented at the atomic sites with the required
// acquire/release pairs and checked dynamically by the TSan CI job.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/lock_order.h"

#if defined(__clang__)
#define DEFRAG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DEFRAG_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define DEFRAG_CAPABILITY(x) DEFRAG_THREAD_ANNOTATION(capability(x))
#define DEFRAG_SCOPED_CAPABILITY DEFRAG_THREAD_ANNOTATION(scoped_lockable)
#define DEFRAG_GUARDED_BY(x) DEFRAG_THREAD_ANNOTATION(guarded_by(x))
#define DEFRAG_PT_GUARDED_BY(x) DEFRAG_THREAD_ANNOTATION(pt_guarded_by(x))
#define DEFRAG_ACQUIRE(...) \
  DEFRAG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DEFRAG_TRY_ACQUIRE(...) \
  DEFRAG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define DEFRAG_RELEASE(...) \
  DEFRAG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DEFRAG_REQUIRES(...) \
  DEFRAG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DEFRAG_EXCLUDES(...) DEFRAG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define DEFRAG_ACQUIRED_BEFORE(...) \
  DEFRAG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DEFRAG_ACQUIRED_AFTER(...) \
  DEFRAG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define DEFRAG_RETURN_CAPABILITY(x) DEFRAG_THREAD_ANNOTATION(lock_returned(x))
#define DEFRAG_NO_THREAD_SAFETY_ANALYSIS \
  DEFRAG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace defrag {

/// std::mutex with a capability annotation so guarded fields can name it,
/// plus an optional lock-order rank (common/lock_order.h). Ranked mutexes
/// are checked by the debug lock-order validator: acquiring one with a
/// level <= any ranked lock already held by this thread fails fatally.
/// Every Mutex member in src/ must be ranked (lock_graph_lint enforces).
class DEFRAG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const lock_order::Rank& rank) : rank_(&rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DEFRAG_ACQUIRE() {
    // Checked before blocking, so a declared inversion fails fast instead
    // of deadlocking under the wrong interleaving.
    if (rank_->level >= 0 && lock_order::enabled()) {
      lock_order::note_acquire(this, *rank_);
    }
    mu_.lock();
  }
  void unlock() DEFRAG_RELEASE() {
    mu_.unlock();
    if (rank_->level >= 0 && lock_order::enabled()) {
      lock_order::note_release(this);
    }
  }
  bool try_lock() DEFRAG_TRY_ACQUIRE(true) {
    // try_lock cannot deadlock, but an out-of-order try is still a
    // hierarchy violation — check before attempting.
    if (rank_->level >= 0 && lock_order::enabled()) {
      lock_order::note_acquire(this, *rank_);
      if (mu_.try_lock()) return true;
      lock_order::note_release(this);
      return false;
    }
    return mu_.try_lock();
  }

  const lock_order::Rank& rank() const { return *rank_; }

 private:
  std::mutex mu_;
  const lock_order::Rank* rank_ = &lock_order::kUnranked;
};

/// Scoped lock (std::lock_guard shape). The scoped_lockable annotation lets
/// the analysis track the critical section's extent.
class DEFRAG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DEFRAG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() noexcept DEFRAG_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over defrag::Mutex. wait() takes the Mutex directly
/// (condition_variable_any), so call sites keep the annotated type end to
/// end. There is deliberately no predicate overload: a predicate lambda is
/// its own function under the analysis and would need annotations of its
/// own — write the standard `while (!ready) cv.wait(mu);` loop instead, and
/// the guarded reads in the condition get checked where they happen.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically release `mu`, sleep until notified, reacquire. Caller must
  /// hold `mu` (enforced by the analysis); spurious wakeups happen, so
  /// always re-test the condition in a loop.
  void wait(Mutex& mu) DEFRAG_REQUIRES(mu) { cv_.wait(mu); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace defrag
