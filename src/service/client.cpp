#include "service/client.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "service/wire.h"

namespace defrag::service {

namespace {

/// BACKUP_DATA framing granularity (well under kMaxFramePayload).
constexpr std::uint64_t kBackupDataChunk = 4ull << 20;

}  // namespace

Client::Client(const std::string& socket_path, const std::string& tenant,
               std::uint64_t max_restore_bytes)
    : conn_(connect_unix(socket_path)),
      tenant_(tenant),
      max_restore_bytes_(max_restore_bytes) {
  HelloRequest hello;
  hello.tenant = tenant_;
  conn_.send_frame(encode(hello));
  session_id_ = parse_hello_ok(expect(FrameType::kHelloOk)).session_id;
}

Bytes Client::expect(FrameType expected) {
  const std::optional<Bytes> payload = conn_.recv_frame();
  if (!payload.has_value()) {
    throw WireError("server closed the connection mid-request");
  }
  const FrameType type = frame_type(*payload);
  const Bytes body = to_bytes(frame_body(*payload));
  if (type == FrameType::kRejected) throw RejectedError(parse_reason(body));
  if (type == FrameType::kError) throw RemoteError(parse_reason(body));
  if (type != expected) {
    throw WireError("unexpected response " + to_string(type) + ", wanted " +
                    to_string(expected));
  }
  return body;
}

BackupDoneResponse Client::backup(const std::string& label, ByteView stream) {
  BackupBeginRequest begin;
  begin.label = label;
  conn_.send_frame(encode(begin));
  expect(FrameType::kOk);
  try {
    for (std::uint64_t off = 0; off < stream.size();
         off += kBackupDataChunk) {
      const std::uint64_t n =
          std::min<std::uint64_t>(kBackupDataChunk, stream.size() - off);
      conn_.send_frame(encode_backup_data(stream.subspan(off, n)));
    }
    conn_.send_frame(encode_empty(FrameType::kBackupEnd));
  } catch (const SocketError&) {
    // The server ingests frames as they arrive, so a backup it fails
    // mid-stream is answered with ERROR and a close while frames are still
    // going out. Report the queued ERROR, not the broken pipe.
    rethrow_queued_error();
    throw;
  }
  return parse_backup_done(expect(FrameType::kBackupDone));
}

void Client::rethrow_queued_error() {
  std::optional<Bytes> payload;
  try {
    payload = conn_.recv_frame();
  } catch (const SocketError&) {
    return;  // nothing queued; the caller's own error stands
  }
  if (payload.has_value() && frame_type(*payload) == FrameType::kError) {
    throw RemoteError(parse_reason(frame_body(*payload)));
  }
}

RestoreDoneResponse Client::restore(
    std::uint32_t backup_id, const std::function<void(ByteView)>& sink) {
  RestoreRequest req;
  req.backup_id = backup_id;
  conn_.send_frame(encode(req));
  std::uint64_t streamed = 0;
  for (;;) {
    const std::optional<Bytes> payload = conn_.recv_frame();
    if (!payload.has_value()) {
      throw WireError("server closed the connection mid-restore");
    }
    const FrameType type = frame_type(*payload);
    const ByteView body = frame_body(*payload);
    if (type == FrameType::kRestoreData) {
      sink(body);
      streamed += body.size();
      continue;
    }
    if (type == FrameType::kRestoreDone) {
      const RestoreDoneResponse resp = parse_restore_done(body);
      if (resp.logical_bytes != streamed) {
        throw WireError("RESTORE_DONE size disagrees with streamed data");
      }
      return resp;
    }
    if (type == FrameType::kError) throw RemoteError(parse_reason(body));
    throw WireError("unexpected frame during restore: " + to_string(type));
  }
}

Bytes Client::restore(std::uint32_t backup_id, RestoreDoneResponse* done) {
  Bytes out;
  const RestoreDoneResponse resp = restore(backup_id, [&](ByteView body) {
    // Checked before the insert grows `out`: a hostile server must not
    // be able to balloon client memory past the cap plus one frame.
    if (body.size() > max_restore_bytes_ - out.size()) {
      throw WireError("restore stream exceeds the restore-bytes cap");
    }
    out.insert(out.end(), body.begin(), body.end());
  });
  if (done != nullptr) *done = resp;
  return out;
}

BackupListResponse Client::list() {
  conn_.send_frame(encode_empty(FrameType::kList));
  return parse_backup_list(expect(FrameType::kBackupList));
}

std::string Client::metrics_json() {
  conn_.send_frame(encode_empty(FrameType::kMetrics));
  return parse_metrics_json(expect(FrameType::kMetricsJson));
}

StatsResponse Client::stats() {
  conn_.send_frame(encode_empty(FrameType::kStats));
  return parse_stats(expect(FrameType::kStatsResult));
}

HealthResponse Client::health() {
  conn_.send_frame(encode_empty(FrameType::kHealth));
  return parse_health(expect(FrameType::kHealthResult));
}

void Client::shutdown_server() {
  conn_.send_frame(encode_empty(FrameType::kShutdown));
  expect(FrameType::kOk);
}

namespace {

Bytes one_shot(const std::string& socket_path, FrameType request,
               FrameType expected) {
  Conn conn = connect_unix(socket_path);
  conn.send_frame(encode_empty(request));
  const std::optional<Bytes> payload = conn.recv_frame();
  if (!payload.has_value()) {
    throw WireError("server closed the connection mid-request");
  }
  if (frame_type(*payload) != expected) {
    throw WireError("unexpected response " + to_string(frame_type(*payload)) +
                    ", wanted " + to_string(expected));
  }
  return to_bytes(frame_body(*payload));
}

}  // namespace

StatsResponse fetch_stats(const std::string& socket_path) {
  return parse_stats(one_shot(socket_path, FrameType::kStats,
                              FrameType::kStatsResult));
}

HealthResponse fetch_health(const std::string& socket_path) {
  return parse_health(one_shot(socket_path, FrameType::kHealth,
                               FrameType::kHealthResult));
}

}  // namespace defrag::service
