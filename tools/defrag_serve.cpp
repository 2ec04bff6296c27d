// defrag-serve: the multi-tenant backup service daemon.
//
//   defrag-serve run --socket PATH [--max-sessions N] [--per-tenant N]
//                    [--index-shards N]
//                    [--log-level debug|info|warn|error|off] [--log-json]
//                    [--slow-ms N] [--metrics-json FILE] [--trace-out FILE]
//
// Binds an AF_UNIX socket and serves the framed protocol of
// src/service/protocol.h (see docs/SERVICE.md): any number of tenants,
// each with an isolated backup namespace, all deduplicating into one
// shared container store. Concurrency is bounded by --max-sessions
// globally and --per-tenant per tenant; over-limit HELLOs get a clean
// REJECTED and the connection closes.
//
// All daemon output goes through the structured logger (stderr, flushed
// per line; --log-json switches to JSON-lines). --slow-ms N logs a WARN
// for any request slower than N milliseconds. On drain, --metrics-json
// writes the final defrag.metrics.v1 snapshot and --trace-out writes the
// Chrome trace (request-id grouped; load at https://ui.perfetto.dev).
//
// SIGINT/SIGTERM (or a client SHUTDOWN request) begin drain-and-shutdown:
// no new sessions, in-flight operations complete, every session thread is
// joined, then the process exits 0. The signal handler is one
// async-signal-safe write() on the server's self-pipe.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <string>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cli_config.h"
#include "service/server.h"
#include "service/socket.h"

namespace {

defrag::service::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // one write(2): safe
}

int usage() {
  // Usage text is the CLI contract and must reach the invoking terminal
  // as-is, not as a log event.
  std::fprintf(
      stderr,
      "usage: defrag-serve run --socket PATH [--max-sessions N]\n"
      "                    [--per-tenant N] [--index-shards N]\n"
      "                    [--log-level debug|info|warn|error|off]\n"
      "                    [--log-json] [--slow-ms N]\n"
      "                    [--metrics-json FILE] [--trace-out FILE]\n");
  return 2;
}

/// Write the final metrics snapshot / Chrome trace after the drain.
/// Failures are logged, not fatal: the daemon already served its clients.
bool export_file(const std::string& path, const char* what,
                 const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (!out) {
    DEFRAG_LOG_ERROR("serve.export_failed", {"file", path}, {"what", what});
    return false;
  }
  write(out);
  DEFRAG_LOG_INFO("serve.export", {"file", path}, {"what", what});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace defrag;
  const auto args = cli::parse_args(argc, argv);
  if (!args || args->command != "run") return usage();

  const std::optional<obs::LogLevel> level =
      obs::parse_log_level(args->get("log-level", "info"));
  if (!level) return usage();
  obs::Logger::global().set_level(*level);
  obs::Logger::global().set_json(args->flag("log-json"));

  service::ServerConfig config;
  config.socket_path = args->get("socket", "/tmp/defrag-serve.sock");
  config.limits.max_sessions = args->get_size("max-sessions", 8);
  config.limits.max_sessions_per_tenant = args->get_size("per-tenant", 4);
  config.ingest.index_shards =
      args->get_size("index-shards", config.ingest.index_shards);
  config.slow_request_us = args->get_u64("slow-ms", 0) * 1000;

  const std::string metrics_path = args->get("metrics-json", "");
  const std::string trace_path = args->get("trace-out", "");
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();

  try {
    service::Server server(config);
    g_server = &server;
    struct sigaction sa = {};
    sa.sa_handler = handle_stop_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    // Readiness line: the logger's sink flushes per line, so a pipe or a
    // supervisor waiting on it never stalls on buffering.
    DEFRAG_LOG_INFO("serve.listening", {"socket", server.socket_path()},
                    {"max_sessions", config.limits.max_sessions},
                    {"per_tenant", config.limits.max_sessions_per_tenant});
    server.run();
    g_server = nullptr;

    bool ok = true;
    if (!metrics_path.empty()) {
      ok &= export_file(metrics_path, "metrics", [](std::ostream& os) {
        obs::write_metrics_json(obs::MetricsRegistry::global().snapshot(), os);
      });
    }
    if (!trace_path.empty()) {
      ok &= export_file(trace_path, "trace", [](std::ostream& os) {
        obs::TraceRecorder::global().write_chrome_json(os);
      });
    }
    DEFRAG_LOG_INFO("serve.exit");
    if (!ok) return 1;
  } catch (const service::SocketError& e) {
    DEFRAG_LOG_ERROR("serve.fatal", {"reason", e.what()});
    return 1;
  }
  return 0;
}
