#include "service/server.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/session.h"
#include "service/socket.h"

namespace defrag::service {

Server::Server(const ServerConfig& config)
    : config_(config),
      ingestor_(config.ingest),
      scheduler_(config.limits),
      listener_(config.socket_path),
      start_time_(std::chrono::steady_clock::now()) {
  DEFRAG_CHECK_MSG(::pipe(stop_pipe_) == 0, "cannot create stop pipe");
  // Touch the service counters up front so a metrics export from a fresh
  // daemon already carries the full service.* surface.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("service.sessions_accepted");
  reg.counter("service.sessions_rejected");
  reg.counter("service.sessions_served");
  reg.counter("service.backups");
  reg.counter("service.restores");
  reg.counter("service.bytes_ingested");
  reg.counter("service.bytes_restored");
  reg.counter("service.restore.extents");
  reg.counter("service.wire_errors");
  reg.counter("service.requests_slow");
  reg.counter("service.session_internal_errors");
  reg.gauge("service.active_sessions").set(0.0);
  // Per-request latency histograms, one per timed protocol op. Sessions
  // observe into these by runtime-built name; registering them here keeps
  // the names literal (the metric-docs lint contract) and present in a
  // fresh daemon's export.
  reg.histogram("service.request.hello_us");
  reg.histogram("service.request.backup_us");
  reg.histogram("service.request.restore_us");
  reg.histogram("service.request.list_us");
  reg.histogram("service.request.metrics_us");
  reg.histogram("service.request.stats_us");
  reg.histogram("service.request.health_us");
  reg.histogram("service.request.shutdown_us");
  // Observed by the backup streams' piece pipeline (dedup/chunk_prep.h).
  reg.histogram("ingest.piece_wait_us");
  reg.counter("chunking.caller_jobs");
}

Server::~Server() noexcept {
  scheduler_.drain();
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

void Server::request_stop() {
  // Async-signal-safe by construction: one write(2), no locks, no
  // allocation. A full pipe means a stop is already pending — fine.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

void Server::serve_connection(int fd) {
  SessionEnv env{scheduler_,
                 catalog_,
                 ingestor_,
                 [this] { request_stop(); },
                 start_time_,
                 config_.limits,
                 config_.slow_request_us,
                 &next_request_id_};
  Session session(Conn(fd), env);
  session.run();
  obs::MetricsRegistry::global().counter("service.sessions_served").add(1);
}

void Server::run() {
  for (;;) {
    const int fd = listener_.accept_or_stop(stop_pipe_[0]);
    if (fd < 0) break;  // stop requested
    scheduler_.reap_finished();
    if (!scheduler_.launch(fd, [this](int conn_fd) {
          serve_connection(conn_fd);
        })) {
      ::close(fd);  // drain already started; refuse silently
    }
  }
  DEFRAG_LOG_INFO("server.stop",
                  {"active_sessions", scheduler_.active_sessions()});
  scheduler_.drain();
  DEFRAG_LOG_INFO("server.drained");
}

}  // namespace defrag::service
