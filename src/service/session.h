// One connected client's protocol loop (runs on its own scheduler thread).
//
// A Session owns its Conn and drives the request/response state machine of
// protocol.h: HELLO (admission via the SessionScheduler), then any number
// of backup / restore / list / metrics / shutdown operations until the
// client disconnects or a malformed frame closes the connection. STATS and
// HEALTH are answered with or without admission, so monitoring keeps
// working while the server is full or draining.
//
// Observability (the service's per-request contract):
//  - admission mints a request id from the server-wide counter, answers
//    HELLO_OK with it, and installs an obs::RequestScope for the rest of
//    the session — every log line and trace span below this thread
//    (catalog commit, ingest, container seals) carries the rid;
//  - every request gets a "service.<op>" trace span, a sample in the
//    service.request.<op>_us histogram, and — over the configured slow
//    threshold — a service.slow_request warning plus the
//    service.requests_slow counter. A backup is one request from
//    BACKUP_BEGIN to BACKUP_DONE, so its span and backup_us cover the
//    ingest that runs while its BACKUP_DATA frames arrive.
//
// Data plane, streamed both ways through fixed-size buffers:
//  - BACKUP_BEGIN opens a ParallelIngestor::Stream into a fresh Recipe;
//    every BACKUP_DATA frame is fed to it as it arrives (chunked,
//    fingerprinted, deduplicated and appended before the next frame is
//    read); BACKUP_END finishes the stream and commits the recipe into the
//    tenant's namespace. Between frames the stream's open container is
//    parked, so a restore that needs it seals it instead of waiting for
//    this client. A backup that fails or is abandoned commits nothing.
//    From BACKUP_BEGIN to the end of the backup the session is marked
//    inside a backup in the SessionScheduler, so a drain lets it read the
//    rest of its frames; it stops reading after BACKUP_DONE.
//  - RESTORE fetches the recipe, waits for every container it references
//    to be *sealed* (ContainerStore::wait_sealed — the barrier that makes
//    restoring concurrently with other tenants' in-flight backups
//    race-free), and replays it through restore_with_strategy() straight
//    into the outgoing RESTORE_DATA frame, sending each frame once full.
//  - Session memory is one frame plus the chunker's max_size carry, not
//    one backup; service.session.buffer_high_water_bytes reports it.
//
// Metrics: session-scoped values accumulate in a session-local
// MetricsRegistry under the tenant's "service.tenant.<slug>." scope and
// are folded into the global registry after every completed operation
// (merge + reset, so counters never double-count), which also keeps
// histogram observation single-threaded per session. Process-wide
// service.* counters are updated directly (they are atomic).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "core/parallel_ingest.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "storage/recipe.h"

namespace defrag::service {

/// Everything a session borrows from its Server. All references outlive
/// the session (the scheduler joins every session thread before the
/// Server's members destruct).
struct SessionEnv {
  SessionScheduler& scheduler;
  TenantCatalog& catalog;
  ParallelIngestor& ingestor;
  std::function<void()> request_stop;
  /// Daemon start (steady clock) for STATS/HEALTH uptime.
  std::chrono::steady_clock::time_point server_start{};
  /// Quotas echoed in STATS occupancy rows.
  SchedulerLimits limits;
  /// Requests slower than this log service.slow_request; 0 disables.
  std::uint64_t slow_request_us = 0;
  /// Server-wide request-id mint (never null; ids start at 1, so rid 0
  /// always means "no request scope").
  std::atomic<std::uint64_t>* next_request_id = nullptr;
};

class Session {
 public:
  Session(Conn conn, const SessionEnv& env);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Run the protocol loop to completion. Never throws — this is the
  /// session thread's declared catch boundary (error_policy.h
  /// "Session::run"): peer-caused failures (WireError/SocketError) close
  /// the connection; internal failures (CheckFailure, any std::exception)
  /// are logged with the rid, counted in service.session_internal_errors,
  /// answered with ERROR when the socket still writes, and end only this
  /// session. Admission state and metrics are always released/flushed on
  /// the way out.
  void run();

 private:
  /// First-contact requests: HELLO, or unadmitted STATS/HEALTH. Returns
  /// false to close the connection.
  bool handle_unadmitted(ByteView payload);
  bool handle_hello(ByteView body);
  /// One post-admission request. Returns false to close the connection.
  bool handle(ByteView payload);
  /// Finish the open backup, commit its recipe, answer BACKUP_DONE.
  bool do_backup_end();
  bool do_restore(const RestoreRequest& req);
  bool do_list();
  bool do_metrics();
  bool do_stats();
  bool do_health();
  bool do_shutdown();
  /// Run `body` as one named request: trace span, latency histogram,
  /// slow-request accounting. `op` must be one of the documented
  /// service.request.<op>_us names.
  bool timed(const char* op, const std::function<bool()>& body);
  /// The latency-histogram and slow-request half of timed(), for a
  /// request that began at `start`.
  void record_request(const char* op,
                      std::chrono::steady_clock::time_point start);
  /// Raise the session's buffer high-water mark to `bytes`.
  void note_buffer(std::uint64_t bytes);
  void send(const Bytes& payload) { conn_.send_frame(payload); }
  /// Fold the session-local registry into the global one and clear it.
  void flush_metrics();
  /// Boundary bookkeeping for an internal error: count, log at ERROR with
  /// the rid, best-effort ERROR response.
  void report_internal_error(const char* event, const char* what);

  Conn conn_;
  SessionEnv env_;

  bool admitted_ = false;
  std::uint64_t rid_ = 0;
  /// Installed at admission; keeps this thread's log lines and trace
  /// spans tagged with rid_ until the session object dies.
  std::optional<obs::RequestScope> rid_scope_;
  std::string tenant_;
  std::string scope_;  // "service.tenant.<slug>."
  obs::MetricsRegistry local_;

  /// A backup between BACKUP_BEGIN and BACKUP_END.
  struct Backup {
    Backup(ParallelIngestor& ingestor, std::string label);
    std::chrono::steady_clock::time_point start;
    obs::TraceSpan span{"service.backup", "service"};
    Recipe recipe;  // declared before stream, which writes into it
    ParallelIngestor::Stream stream;
  };
  std::optional<Backup> backup_;
  /// Largest ingest carry or restore frame buffer this session has held.
  std::uint64_t buffer_high_water_ = 0;
};

}  // namespace defrag::service
