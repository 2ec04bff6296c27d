// Session scheduler: admission control + session-thread lifecycle.
//
// defrag-serve runs one thread per connected session; the scheduler is the
// control plane over those threads. It answers three questions:
//
//  1. Admission — may this HELLO become a session? Refused (with a clean
//     REJECTED reason the client can print) when the server is draining,
//     when the global concurrent-session limit is reached, or when the
//     tenant's own quota is reached. Admission is per *session*, counted
//     from HELLO to connection close.
//  2. Multiplexing — admitted sessions run concurrently and call straight
//     into ParallelIngestor::ingest_stream() / the restore path; the
//     scheduler only bounds how many are in flight, it never serializes
//     the data plane.
//  3. Drain — drain() stops new launches, nudges every session that is not
//     inside a backup off its socket read (shutdown(SHUT_RD): an in-flight
//     operation still completes and writes its response), then joins every
//     session thread. A backup spans many frames, so a session inside one
//     keeps reading until BACKUP_END, answers BACKUP_DONE and only then
//     stops; a client that stalls mid-backup therefore holds the drain, as
//     a client that stops reading a restore already does. After drain()
//     returns no session thread exists (the TSan shutdown tests hang on
//     anything less).
//
// Lock rank kServiceScheduler (2): the outermost lock of the daemon. A
// session thread acquires it only in launch bookkeeping, admit/release and
// finish — never while holding any data-plane lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace defrag::service {

struct SchedulerLimits {
  /// Concurrent admitted sessions across all tenants.
  std::size_t max_sessions = 8;
  /// Concurrent admitted sessions per tenant.
  std::size_t max_sessions_per_tenant = 4;
};

class SessionScheduler {
 public:
  enum class Admission { kAdmitted, kDraining, kServerFull, kTenantQuota };

  explicit SessionScheduler(const SchedulerLimits& limits) : limits_(limits) {}
  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;
  /// drain() must have run (checked): threads may not outlive the scheduler.
  ~SessionScheduler() noexcept;

  /// Human-readable REJECTED reason for a refused admission.
  static std::string reason(Admission a);

  /// Spawn a session thread running `body(fd)`. The scheduler owns the
  /// thread and records `fd` so drain() can unblock it; `body` owns the fd
  /// itself (closing it). Returns false when draining — the caller must
  /// close the fd, no thread is created.
  bool launch(int fd, std::function<void(int)> body);

  /// Count `tenant` against the limits. On kAdmitted the caller MUST pair
  /// with release(tenant) before its session thread exits.
  Admission admit(const std::string& tenant);
  void release(const std::string& tenant);

  /// Mark the session on `fd` as inside a backup (it has read
  /// BACKUP_BEGIN), so drain() leaves its read side open until the backup
  /// ends. Returns false when draining: the drain already shut the read
  /// side, so the backup's frames could never arrive.
  bool enter_backup(int fd);
  /// The backup on `fd` completed or died. Returns true when draining: the
  /// session must stop reading (drain skipped its SHUT_RD). Idempotent.
  bool leave_backup(int fd);

  /// Stop new launches, shutdown(SHUT_RD) the socket of every live session
  /// not inside a backup, join every session thread. Idempotent; safe to
  /// call with sessions mid-operation (they finish the operation first —
  /// their next read returns EOF, or they stop after BACKUP_DONE).
  void drain();

  /// Join threads of sessions that already finished (accept-loop
  /// housekeeping, keeps the registry from growing without bound).
  void reap_finished();

  std::size_t active_sessions() const;
  std::size_t active_for(const std::string& tenant) const;
  /// True once drain() has begun (HEALTH reports serving=false from here).
  bool draining() const;
  /// Snapshot of per-tenant admitted-session counts (STATS occupancy rows).
  std::map<std::string, std::size_t> active_by_tenant() const;

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
  };

  /// Session-thread epilogue: moves the session's own thread handle from
  /// conns_ to finished_ so a reaper (or drain) can join it.
  void finish_session(std::uint64_t id);

  SchedulerLimits limits_;
  mutable Mutex mu_{lock_order::kServiceScheduler};
  CondVar idle_cv_;  // signalled when a session finishes
  bool draining_ DEFRAG_GUARDED_BY(mu_) = false;
  bool drained_ DEFRAG_GUARDED_BY(mu_) = false;
  std::uint64_t next_id_ DEFRAG_GUARDED_BY(mu_) = 0;
  std::map<std::uint64_t, Conn> conns_ DEFRAG_GUARDED_BY(mu_);
  /// Fds of sessions between BACKUP_BEGIN and the end of that backup.
  std::set<int> in_backup_ DEFRAG_GUARDED_BY(mu_);
  /// Threads whose session body returned; joinable by any reaper.
  std::vector<std::thread> finished_ DEFRAG_GUARDED_BY(mu_);
  std::size_t admitted_ DEFRAG_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::size_t> admitted_per_tenant_
      DEFRAG_GUARDED_BY(mu_);
};

}  // namespace defrag::service
