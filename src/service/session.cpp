#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "core/parallel_ingest.h"
#include "dedup/engine.h"
#include "dedup/restore_strategies.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/introspect.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "service/wire.h"
#include "storage/container_store.h"
#include "storage/recipe.h"

namespace defrag::service {

namespace {

/// RESTORE_DATA body size. Frames are gathered from the containers, so
/// this sets only how the restore is pipelined: the client's first byte
/// waits for one frame's recipe walk.
constexpr std::uint64_t kRestoreDataChunk = 1ull << 20;

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Session::Session(Conn conn, const SessionEnv& env)
    : conn_(std::move(conn)), env_(env) {}

void Session::run() {
  auto& reg = obs::MetricsRegistry::global();
  try {
    while (true) {
      const std::optional<std::uint32_t> len = conn_.recv_header();
      if (!len.has_value()) break;  // clean EOF
      std::uint8_t type = 0;
      conn_.recv_payload(MutableByteView(&type, 1));
      if (backup_.has_value() &&
          frame_type(ByteView(&type, 1)) == FrameType::kBackupData) {
        receive_backup_data(*len - 1);
        continue;
      }
      Bytes payload(*len);
      payload[0] = type;
      conn_.recv_payload(MutableByteView(payload).subspan(1));
      // Any other request inside a backup finds the frames before it
      // ingested, as a stalled client leaves them.
      if (backup_.has_value()) backup_->stream.flush();
      const bool keep =
          admitted_ ? handle(payload) : handle_unadmitted(payload);
      if (!keep) break;
    }
  } catch (const WireError& e) {
    reg.counter("service.wire_errors").add(1);
    DEFRAG_LOG_WARN("session.wire_error", {"reason", e.what()});
    try {
      send(encode_error(e.what()));
    } catch (const SocketError&) {
      // Peer already gone; nothing left to tell it.
    } catch (const WireError&) {
      // Reason string itself unencodable; just close.
    }
  } catch (const SocketError&) {
    // Peer vanished mid-write; admission/metrics cleanup below still runs.
    DEFRAG_LOG_WARN("session.socket_error", {"tenant", tenant_});
  } catch (const CheckFailure& e) {
    // Invariant failure inside this session's work. Escaping this thread
    // would be std::terminate for every tenant, so the boundary converts
    // it to one dead session: log it loudly (rid is on the log scope),
    // count it, and tell the peer if the socket still writes. Ordered
    // before std::exception (CheckFailure derives std::logic_error).
    report_internal_error("session.check_failure", e.what());
  } catch (const std::exception& e) {
    // Any other taxonomy type reaching the boundary (FailpointError, a
    // storage-layer escape) — same containment: session dies, daemon lives.
    report_internal_error("session.internal_error", e.what());
  }
  // An unfinished backup dies with its session: its containers seal and
  // nothing is committed.
  backup_.reset();
  env_.scheduler.leave_backup(conn_.fd());
  if (admitted_) {
    flush_metrics();
    env_.scheduler.release(tenant_);
    reg.gauge("service.active_sessions")
        .set(static_cast<double>(env_.scheduler.active_sessions()));
    DEFRAG_LOG_INFO("session.end", {"tenant", tenant_});
  }
  conn_.close();
}

void Session::report_internal_error(const char* event, const char* what) {
  obs::MetricsRegistry::global().counter("service.session_internal_errors")
      .add(1);
  DEFRAG_LOG_ERROR(event, {"tenant", tenant_}, {"reason", what});
  try {
    send(encode_error("internal server error"));
  } catch (const SocketError&) {
    // Peer already gone; the log line and counter are the record.
  } catch (const WireError&) {
    // Frame unencodable; just close.
  }
}

bool Session::handle_unadmitted(ByteView payload) {
  const FrameType type = frame_type(payload);
  const ByteView body = frame_body(payload);
  switch (type) {
    case FrameType::kHello:
      return handle_hello(body);
    // Introspection never consumes an admission slot: a monitoring probe
    // must keep answering while the server is full or draining.
    case FrameType::kStats:
      parse_empty(body);
      return timed("stats", [this] { return do_stats(); });
    case FrameType::kHealth:
      parse_empty(body);
      return timed("health", [this] { return do_health(); });
    default:
      throw WireError("expected HELLO");
  }
}

bool Session::handle_hello(ByteView body) {
  auto& reg = obs::MetricsRegistry::global();
  const auto start = std::chrono::steady_clock::now();
  const HelloRequest hello = parse_hello(body);
  if (hello.version != kProtocolVersion) {
    DEFRAG_LOG_WARN("session.reject", {"tenant", hello.tenant},
                    {"reason", "protocol version mismatch"},
                    {"peer_version", hello.version});
    send(encode_rejected("protocol version mismatch"));
    return false;
  }
  const SessionScheduler::Admission verdict =
      env_.scheduler.admit(hello.tenant);
  if (verdict != SessionScheduler::Admission::kAdmitted) {
    reg.counter("service.sessions_rejected").add(1);
    reg.counter(TenantCatalog::metric_scope(hello.tenant) + "rejected")
        .add(1);
    DEFRAG_LOG_WARN("session.reject", {"tenant", hello.tenant},
                    {"reason", SessionScheduler::reason(verdict)});
    send(encode_rejected(SessionScheduler::reason(verdict)));
    return false;
  }
  admitted_ = true;
  tenant_ = hello.tenant;
  scope_ = TenantCatalog::metric_scope(tenant_);
  // Mint the request id and scope the rest of this session (this thread)
  // to it: every log line, trace span and histogram below carries rid_.
  rid_ = env_.next_request_id->fetch_add(1, std::memory_order_relaxed);
  rid_scope_.emplace(rid_);
  local_.counter(scope_ + "sessions").add(1);
  reg.counter("service.sessions_accepted").add(1);
  reg.gauge("service.active_sessions")
      .set(static_cast<double>(env_.scheduler.active_sessions()));
  local_.histogram("service.request.hello_us").observe(us_since(start));
  flush_metrics();
  DEFRAG_LOG_INFO("session.start", {"tenant", tenant_});
  HelloOkResponse ok;
  ok.session_id = rid_;
  send(encode(ok));
  return true;
}

bool Session::handle(ByteView payload) {
  const FrameType type = frame_type(payload);
  const ByteView body = frame_body(payload);
  switch (type) {
    case FrameType::kHello:
      throw WireError("duplicate HELLO");
    case FrameType::kBackupBegin: {
      if (backup_.has_value()) throw WireError("BACKUP_BEGIN inside a backup");
      const BackupBeginRequest req = parse_backup_begin(body);
      // A drain that began before this frame was read has already shut
      // this connection's read side: the backup's data could never arrive.
      if (!env_.scheduler.enter_backup(conn_.fd())) return false;
      backup_.emplace(env_.ingestor, req.label.empty() ? tenant_ : req.label);
      send(encode_empty(FrameType::kOk));
      return true;
    }
    case FrameType::kBackupData:
      // run() hands every BACKUP_DATA inside a backup to
      // receive_backup_data().
      throw WireError("BACKUP_DATA outside a backup");
    case FrameType::kBackupEnd:
      parse_empty(body);
      if (!backup_.has_value()) throw WireError("BACKUP_END outside a backup");
      return do_backup_end();
    case FrameType::kRestore: {
      const RestoreRequest req = parse_restore(body);
      return timed("restore", [this, &req] { return do_restore(req); });
    }
    case FrameType::kList:
      parse_empty(body);
      return timed("list", [this] { return do_list(); });
    case FrameType::kMetrics:
      parse_empty(body);
      return timed("metrics", [this] { return do_metrics(); });
    case FrameType::kStats:
      parse_empty(body);
      return timed("stats", [this] { return do_stats(); });
    case FrameType::kHealth:
      parse_empty(body);
      return timed("health", [this] { return do_health(); });
    case FrameType::kShutdown:
      parse_empty(body);
      return timed("shutdown", [this] { return do_shutdown(); });
    default:
      throw WireError("unexpected frame type from client");
  }
}

void Session::receive_backup_data(std::uint32_t n) {
  ParallelIngestor::Stream& stream = backup_->stream;
  conn_.recv_payload(MutableByteView(stream.prepare(n), n));
  stream.commit(n);
  note_buffer(stream.buffer_high_water());
}

bool Session::timed(const char* op, const std::function<bool()>& body) {
  const auto start = std::chrono::steady_clock::now();
  bool keep = false;
  {
    std::string span_name = "service.";
    span_name += op;
    obs::TraceSpan span(span_name, "service");
    keep = body();
  }
  record_request(op, start);
  return keep;
}

void Session::record_request(const char* op,
                             std::chrono::steady_clock::time_point start) {
  const double us = us_since(start);
  // Name built at runtime; the documented set is registered literally in
  // Server's constructor, one per FrameType op.
  std::string metric = "service.request.";
  metric += op;
  metric += "_us";
  local_.histogram(metric).observe(us);
  flush_metrics();
  if (env_.slow_request_us > 0 &&
      us > static_cast<double>(env_.slow_request_us)) {
    obs::MetricsRegistry::global().counter("service.requests_slow").add(1);
    DEFRAG_LOG_WARN("service.slow_request", {"op", op},
                    {"us", us}, {"tenant", tenant_},
                    {"threshold_us", env_.slow_request_us});
  }
}

Session::Backup::Backup(ParallelIngestor& ingestor, std::string label)
    : start(std::chrono::steady_clock::now()),
      recipe(std::move(label)),
      stream(ingestor, &recipe) {}

bool Session::do_backup_end() {
  const StreamIngestStats st = backup_->stream.finish();
  const std::uint32_t id =
      env_.catalog.commit(tenant_, std::move(backup_->recipe));
  const auto start = backup_->start;

  local_.counter(scope_ + "backups").add(1);
  local_.counter(scope_ + "logical_bytes").add(st.logical_bytes);
  local_.counter(scope_ + "unique_bytes").add(st.unique_bytes);
  local_.counter(scope_ + "dup_bytes").add(st.dup_bytes);
  local_.histogram(scope_ + "backup_wall_us").observe(us_since(start));
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("service.backups").add(1);
  reg.counter("service.bytes_ingested").add(st.logical_bytes);
  flush_metrics();
  DEFRAG_LOG_INFO("session.backup", {"tenant", tenant_},
                  {"backup_id", id},
                  {"logical_bytes", st.logical_bytes},
                  {"unique_bytes", st.unique_bytes});

  BackupDoneResponse resp;
  resp.backup_id = id;
  resp.logical_bytes = st.logical_bytes;
  resp.chunk_count = st.chunk_count;
  resp.unique_bytes = st.unique_bytes;
  resp.dup_bytes = st.dup_bytes;
  backup_.reset();  // ends the service.backup span
  send(encode(resp));
  record_request("backup", start);
  // The drain left this connection readable for the backup's frames; once
  // BACKUP_DONE is out, stop reading as the drain asked.
  return !env_.scheduler.leave_backup(conn_.fd());
}

bool Session::do_restore(const RestoreRequest& req) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const Recipe> recipe =
      env_.catalog.find(tenant_, req.backup_id);
  if (recipe == nullptr) {
    send(encode_error("unknown backup id for this tenant"));
    return true;  // unservable but well-formed; session continues
  }

  // Another tenant's in-flight backup may still hold a referenced
  // container open; wait for every distinct container's seal to be
  // published before reading (bounded by that stream's appender close).
  // Recipes reference containers in long runs, so collapsing runs first
  // leaves little to sort.
  std::vector<ContainerId> referenced;
  for (const RecipeEntry& e : recipe->entries()) {
    if (referenced.empty() || referenced.back() != e.location.container) {
      referenced.push_back(e.location.container);
    }
  }
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  const ContainerStore& store = env_.ingestor.store();
  for (const ContainerId id : referenced) store.wait_sealed(id);

  // Send straight from the containers: the sink's views stay valid while
  // the store lives (RestoreSink), so each RESTORE_DATA frame is a gather
  // list of them, with chunks adjacent in a container merged into one run,
  // and leaves as soon as it holds kRestoreDataChunk bytes. The session
  // copies no restored byte, and the client's first byte leaves after one
  // frame's recipe walk.
  const std::uint8_t type = static_cast<std::uint8_t>(FrameType::kRestoreData);
  std::vector<ByteView> parts{ByteView(&type, 1)};
  std::uint64_t frame_bytes = 0;
  std::uint64_t extents = 0;  // contiguous container runs sent
  const std::uint8_t* run_end = nullptr;
  const RestoreOptions options;
  const RestoreResult rr = restore_with_strategy(
      store, *recipe, env_.ingestor.params().disk, options,
      [&](ByteView bytes) {
        if (bytes.empty()) return;
        if (bytes.data() != run_end) ++extents;
        run_end = bytes.data() + bytes.size();
        while (!bytes.empty()) {
          const std::size_t n = std::min<std::uint64_t>(
              bytes.size(), kRestoreDataChunk - frame_bytes);
          ByteView& last = parts.back();
          if (parts.size() > 1 && last.data() + last.size() == bytes.data()) {
            last = ByteView(last.data(), last.size() + n);
          } else {
            parts.push_back(bytes.first(n));
          }
          frame_bytes += n;
          bytes = bytes.subspan(n);
          if (frame_bytes == kRestoreDataChunk) {
            conn_.send_frame_gather(parts);
            parts.resize(1);
            frame_bytes = 0;
          }
        }
      });
  if (frame_bytes > 0) conn_.send_frame_gather(parts);

  local_.counter(scope_ + "restores").add(1);
  local_.counter(scope_ + "restored_bytes").add(rr.logical_bytes);
  local_.histogram(scope_ + "restore_wall_us").observe(us_since(start));
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("service.restores").add(1);
  reg.counter("service.bytes_restored").add(rr.logical_bytes);
  reg.counter("service.restore.extents").add(extents);
  flush_metrics();
  DEFRAG_LOG_INFO("session.restore", {"tenant", tenant_},
                  {"backup_id", req.backup_id},
                  {"bytes", rr.logical_bytes},
                  {"container_loads", rr.container_loads});

  RestoreDoneResponse resp;
  resp.logical_bytes = rr.logical_bytes;
  resp.container_loads = rr.container_loads;
  send(encode(resp));
  return true;
}

bool Session::do_list() {
  BackupListResponse resp;
  resp.backups = env_.catalog.list(tenant_);
  send(encode(resp));
  return true;
}

bool Session::do_metrics() {
  std::ostringstream os;
  obs::write_metrics_json(obs::MetricsRegistry::global().snapshot(), os);
  send(encode_metrics_json(os.str()));
  return true;
}

bool Session::do_stats() {
  send(encode(collect_stats(env_.scheduler, env_.catalog, env_.limits,
                            env_.server_start)));
  return true;
}

bool Session::do_health() {
  send(encode(collect_health(env_.scheduler, env_.server_start)));
  return true;
}

bool Session::do_shutdown() {
  // Acknowledge first: once the drain starts, this session's next read
  // sees EOF and the loop exits cleanly.
  DEFRAG_LOG_INFO("session.shutdown_request", {"tenant", tenant_});
  send(encode_empty(FrameType::kOk));
  env_.request_stop();
  return true;
}

void Session::note_buffer(std::uint64_t bytes) {
  buffer_high_water_ = std::max(buffer_high_water_, bytes);
}

void Session::flush_metrics() {
  if (buffer_high_water_ > 0) {
    local_.gauge("service.session.buffer_high_water_bytes")
        .set(static_cast<double>(buffer_high_water_));
  }
  obs::MetricsRegistry::global().merge_from(local_);
  local_.reset();
}

}  // namespace defrag::service
