#include "service_pass.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "obs/metrics_parse.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "service/wire.h"

namespace svcbench {

namespace service = defrag::service;
using defrag::ByteView;
using defrag::Bytes;
using service::FrameType;
using Clock = std::chrono::steady_clock;

namespace {

/// BACKUP_DATA framing granularity; defrag-client uses the same.
constexpr std::uint64_t kBackupDataChunk = 4ull << 20;

/// Client c's spans carry request id kClientTrackBase + c, which puts each
/// client on one Chrome-trace track for the whole run. The daemon's own
/// session ids restart at 1 for every Server, far below it.
constexpr std::uint64_t kClientTrackBase = 1000;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A Server accepting on its own thread for as long as this object lives.
class InProcessDaemon {
 public:
  explicit InProcessDaemon(const service::ServerConfig& config)
      : server_(config), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            std::cerr << "svcbench: server stopped: " << e.what() << "\n";
          }
        }) {}
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;
  ~InProcessDaemon() noexcept {
    server_.request_stop();
    thread_.join();
  }

  const std::string& socket_path() const { return server_.socket_path(); }

 private:
  service::Server server_;
  std::thread thread_;
};

/// One tenant's connection, speaking the protocol frame by frame so each
/// request's phases can be timed (service::Client hides them). Spans are
/// recorded when the global recorder is enabled.
class ServiceClient final : public Target {
 public:
  ServiceClient(const std::string& socket_path, const std::string& tenant,
                std::uint64_t track)
      : conn_(service::connect_unix(socket_path)),
        tenant_(tenant),
        track_(track) {
    service::HelloRequest hello;
    hello.tenant = tenant;
    conn_.send_frame(service::encode(hello));
    service::parse_hello_ok(expect(FrameType::kHelloOk));
  }

  std::uint32_t backup(ByteView stream) override {
    const defrag::obs::RequestScope scope(track_);
    defrag::obs::TraceSpan span("bench.backup", "bench");
    BackupSample s;
    const Clock::time_point t0 = Clock::now();
    {
      defrag::obs::TraceSpan send("bench.backup.send", "bench");
      service::BackupBeginRequest begin;
      begin.label = tenant_;
      conn_.send_frame(service::encode(begin));
      expect(FrameType::kOk);
      for (std::uint64_t off = 0; off < stream.size();
           off += kBackupDataChunk) {
        const std::uint64_t n =
            std::min<std::uint64_t>(kBackupDataChunk, stream.size() - off);
        conn_.send_frame(service::encode_backup_data(stream.subspan(off, n)));
      }
    }
    const Clock::time_point t1 = Clock::now();
    service::BackupDoneResponse done;
    {
      defrag::obs::TraceSpan commit("bench.backup.commit", "bench");
      conn_.send_frame(service::encode_empty(FrameType::kBackupEnd));
      done = service::parse_backup_done(expect(FrameType::kBackupDone));
    }
    const Clock::time_point t2 = Clock::now();
    s.total_s = seconds(t0, t2);
    s.send_s = seconds(t0, t1);
    s.commit_s = seconds(t1, t2);
    s.logical_bytes = stream.size();
    s.unique_bytes = done.unique_bytes;
    if (done.logical_bytes != stream.size()) {
      ++miscounted_;
      std::cerr << "svcbench: backup " << done.backup_id << " sent "
                << stream.size() << " bytes but BACKUP_DONE reports "
                << done.logical_bytes << "\n";
    }
    backups_.push_back(s);
    return done.backup_id;
  }

  void restore(std::uint32_t id, std::uint64_t expected_bytes,
               Bytes& out) override {
    const defrag::obs::RequestScope scope(track_);
    defrag::obs::TraceSpan span("bench.restore", "bench");
    out.clear();
    out.reserve(expected_bytes);
    RestoreSample s;
    const Clock::time_point t0 = Clock::now();
    std::optional<Clock::time_point> first;
    std::optional<defrag::obs::TraceSpan> phase;
    phase.emplace("bench.restore.assemble", "bench");
    service::RestoreRequest req;
    req.backup_id = id;
    conn_.send_frame(service::encode(req));
    for (;;) {
      const Bytes payload = recv();
      const FrameType type = service::frame_type(payload);
      const ByteView body = service::frame_body(payload);
      if (type == FrameType::kRestoreData) {
        if (!first.has_value()) {
          first = Clock::now();
          phase.emplace("bench.restore.transfer", "bench");
        }
        out.insert(out.end(), body.begin(), body.end());
        continue;
      }
      if (type != FrameType::kRestoreDone) throw_unexpected(type, body);
      const service::RestoreDoneResponse done =
          service::parse_restore_done(body);
      phase.reset();
      const Clock::time_point t1 = Clock::now();
      s.total_s = seconds(t0, t1);
      s.ttfb_s = seconds(t0, first.value_or(t1));
      s.bytes = out.size();
      s.container_loads = done.container_loads;
      restores_.push_back(s);
      return;
    }
  }

  std::string metrics_json() {
    conn_.send_frame(service::encode_empty(FrameType::kMetrics));
    return service::parse_metrics_json(expect(FrameType::kMetricsJson));
  }

  const std::string& tenant() const { return tenant_; }
  const std::vector<BackupSample>& backups() const { return backups_; }
  const std::vector<RestoreSample>& restores() const { return restores_; }
  /// Backups whose BACKUP_DONE logical size differs from the bytes sent.
  std::uint64_t miscounted() const { return miscounted_; }

 private:
  Bytes recv() {
    std::optional<Bytes> payload = conn_.recv_frame();
    if (!payload.has_value()) {
      throw service::WireError("server closed the connection mid-request");
    }
    return std::move(*payload);
  }

  [[noreturn]] static void throw_unexpected(FrameType type, ByteView body) {
    if (type == FrameType::kRejected) {
      throw service::RejectedError(service::parse_reason(body));
    }
    if (type == FrameType::kError) {
      throw service::RemoteError(service::parse_reason(body));
    }
    throw service::WireError("unexpected response " + service::to_string(type));
  }

  Bytes expect(FrameType expected) {
    const Bytes payload = recv();
    const FrameType type = service::frame_type(payload);
    if (type != expected) throw_unexpected(type, service::frame_body(payload));
    return defrag::to_bytes(service::frame_body(payload));
  }

  service::Conn conn_;
  std::string tenant_;
  std::uint64_t track_;
  std::vector<BackupSample> backups_;
  std::vector<RestoreSample> restores_;
  std::uint64_t miscounted_ = 0;
};

std::uint64_t counter_or_zero(const defrag::obs::ParsedMetricsDocument& doc,
                              const std::string& name) {
  const defrag::obs::ParsedMetric* m = doc.find(name);
  return m == nullptr ? 0 : m->counter;
}

/// The daemon's per-tenant counters must equal what each client saw.
bool crosscheck(const defrag::obs::ParsedMetricsDocument& doc,
                const ServiceClient& client) {
  std::uint64_t logical = 0;
  std::uint64_t unique = 0;
  for (const BackupSample& b : client.backups()) {
    logical += b.logical_bytes;
    unique += b.unique_bytes;
  }
  const std::string scope =
      service::TenantCatalog::metric_scope(client.tenant());
  const struct {
    const char* name;
    std::uint64_t seen;
  } checks[] = {{"logical_bytes", logical},
                {"unique_bytes", unique},
                {"restores", client.restores().size()}};
  bool ok = true;
  for (const auto& c : checks) {
    const std::uint64_t exported = counter_or_zero(doc, scope + c.name);
    if (exported != c.seen) {
      std::cerr << "svcbench: " << scope << c.name << " = " << exported
                << " but the client saw " << c.seen << "\n";
      ok = false;
    }
  }
  return ok;
}

service::ServerConfig daemon_config(const std::string& socket_dir) {
  service::ServerConfig config;
  config.socket_path =
      socket_dir + "/svcbench-" + std::to_string(::getpid()) + ".sock";
  return config;
}

}  // namespace

std::vector<double> measure_setups(const std::string& socket_dir,
                                   std::size_t n) {
  // The daemon's threads inherit the calling thread's CPU set. On one CPU
  // every hand-off between them is a context switch instead of a wake-up
  // of an idle CPU, whose latency is the host's and varies with its load.
  cpu_set_t saved;
  const bool pinned = ::sched_getaffinity(0, sizeof saved, &saved) == 0;
  if (pinned) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(std::max(::sched_getcpu(), 0)), &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }
  const service::ServerConfig config = daemon_config(socket_dir);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const InProcessDaemon daemon(config);
    const ServiceClient client(daemon.socket_path(),
                               tenant_name("setup", i, 0), kClientTrackBase);
    out.push_back(seconds(t0, Clock::now()));
  }
  if (pinned) ::sched_setaffinity(0, sizeof saved, &saved);
  return out;
}

ServicePassResult& ServicePassResult::operator+=(const ServicePassResult& o) {
  rounds += o.rounds;
  wall_s += o.wall_s;
  backups.insert(backups.end(), o.backups.begin(), o.backups.end());
  restores.insert(restores.end(), o.restores.begin(), o.restores.end());
  setup_minima.insert(setup_minima.end(), o.setup_minima.begin(),
                      o.setup_minima.end());
  tally += o.tally;
  crosscheck_ok = crosscheck_ok && o.crosscheck_ok;
  isa_level_gauge = o.isa_level_gauge;
  return *this;
}

ServicePassResult run_service_pass(Workload w, std::uint64_t seed,
                                   const ServicePassOptions& options) {
  ServicePassResult res;
  const service::ServerConfig config = daemon_config(options.socket_dir);
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (options.rounds != 0
            ? i >= options.rounds
            : i > 0 && seconds(start, Clock::now()) >= options.seconds) {
      break;
    }
    const std::uint64_t round = options.first_round + i;
    if (options.setups_per_round != 0) {
      const std::vector<double> batch =
          measure_setups(options.socket_dir, options.setups_per_round);
      res.setup_minima.push_back(*std::min_element(batch.begin(), batch.end()));
    }
    InProcessDaemon daemon(config);
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (std::size_t c = 0; c < client_count(w); ++c) {
      clients.push_back(std::make_unique<ServiceClient>(
          daemon.socket_path(), tenant_name(options.pass, round, c),
          kClientTrackBase + c));
    }
    std::vector<Target*> targets;
    for (const auto& c : clients) targets.push_back(c.get());
    res.tally += run_round(w, seed, round, targets);

    const defrag::obs::ParsedMetricsDocument doc =
        defrag::obs::parse_metrics_v1(clients[0]->metrics_json());
    for (const auto& c : clients) {
      res.crosscheck_ok = crosscheck(doc, *c) && res.crosscheck_ok;
      res.tally.failed += c->miscounted();
      for (BackupSample b : c->backups()) {
        b.round = round;
        res.backups.push_back(b);
      }
      for (RestoreSample x : c->restores()) {
        x.round = round;
        res.restores.push_back(x);
      }
    }
    if (const defrag::obs::ParsedMetric* isa =
            doc.find("system.cpu.isa_level")) {
      res.isa_level_gauge = isa->gauge;
    }
    ++res.rounds;
  }
  res.wall_s = seconds(start, Clock::now());
  return res;
}

}  // namespace svcbench
