// Client side of the defrag-serve protocol: one connection, one tenant.
//
// Thin synchronous wrapper used by the defrag-client tool and the service
// tests: every method sends one request and blocks for its response.
// Server-reported failures surface as typed exceptions so callers can
// distinguish "admission refused" (RejectedError — expected under load,
// the probe-reject tests assert on it) from "request failed" (RemoteError)
// and from transport problems (SocketError / WireError).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/bytes.h"
#include "service/protocol.h"
#include "service/socket.h"

namespace defrag::service {

/// Server answered REJECTED (admission control / version mismatch).
class RejectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Server answered ERROR (malformed or unservable request).
class RemoteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Upper bound on the bytes the in-memory restore() form will accumulate
/// from RESTORE_DATA frames: a restore that would grow client memory past
/// it fails with WireError instead of growing without bound, whether the
/// backup is that large or the server is hostile or broken. The sink form
/// holds one frame at a time and needs no cap.
inline constexpr std::uint64_t kMaxRestoreBytes = 1ull << 30;

class Client {
 public:
  /// Connect and HELLO as `tenant`. Throws SocketError (no server),
  /// RejectedError (admission refused) or WireError (protocol breakage).
  /// On success the server's HELLO_OK id is available via session_id().
  /// `max_restore_bytes` lowers the restore-stream cap below the default
  /// (embedded tools with tighter memory budgets; tests exercise the cap
  /// without streaming a gigabyte).
  Client(const std::string& socket_path, const std::string& tenant,
         std::uint64_t max_restore_bytes = kMaxRestoreBytes);
  Client(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Full backup round trip: BEGIN / DATA frames / END -> stats. A failure
  /// the server reports mid-stream surfaces as RemoteError.
  BackupDoneResponse backup(const std::string& label, ByteView stream);

  /// Streaming restore round trip: `sink` receives each RESTORE_DATA body
  /// in order as it arrives (the view is valid only during the call).
  /// Returns the server's RESTORE_DONE stats, checked against the bytes
  /// streamed.
  RestoreDoneResponse restore(std::uint32_t backup_id,
                              const std::function<void(ByteView)>& sink);

  /// In-memory restore: the sink form collecting into one buffer, bounded
  /// by `max_restore_bytes`. `done` (optional) receives the server's
  /// RESTORE_DONE stats.
  Bytes restore(std::uint32_t backup_id, RestoreDoneResponse* done = nullptr);

  BackupListResponse list();

  /// The server's defrag.metrics.v1 JSON export.
  std::string metrics_json();

  /// Live daemon statistics (uptime, session counters, per-tenant rows).
  StatsResponse stats();

  /// Liveness/readiness probe.
  HealthResponse health();

  /// Ask the server to drain and exit (server ACKs before draining).
  void shutdown_server();

  /// The server-minted request id for this session — the rid on every
  /// daemon-side log line, trace span and slow-request record it causes.
  std::uint64_t session_id() const { return session_id_; }

  const std::string& tenant() const { return tenant_; }
  /// Close the connection (also releases this session's admission slot
  /// server-side). Implicit in the destructor.
  void close() { conn_.close(); }

 private:
  /// Receive one frame, mapping REJECTED/ERROR to exceptions and anything
  /// other than `expected` to WireError. Returns the frame body.
  Bytes expect(FrameType expected);
  /// After a failed send: if the server queued an ERROR before closing,
  /// throw it as RemoteError; otherwise return.
  void rethrow_queued_error();

  Conn conn_;
  std::string tenant_;
  std::uint64_t session_id_ = 0;
  std::uint64_t max_restore_bytes_ = kMaxRestoreBytes;
};

/// One-shot introspection over a fresh connection, no HELLO: the server
/// answers STATS/HEALTH without admission, so these work against a full or
/// draining daemon (defrag-top polls this way). Throws SocketError when no
/// server is listening, WireError on protocol breakage.
StatsResponse fetch_stats(const std::string& socket_path);
HealthResponse fetch_health(const std::string& socket_path);

}  // namespace defrag::service
