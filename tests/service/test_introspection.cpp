// The ISSUE acceptance scenario for service observability, in-process:
// a 2-tenant x 4-session run must produce (a) structured JSON logs where
// every session-scoped line carries that session's request id, (b) a
// Chrome trace whose service spans are grouped by request id, (c)
// service.request.*_us histograms in the METRICS export, and (d) a STATS
// response whose active/rejected counts match what the run actually did —
// plus slow-request logging and introspection-while-full. TSan CI runs
// this binary, so the logger/trace/stats paths are also raced here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "testing/data.h"
#include "testing/json_check.h"

namespace defrag::service {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/defrag-introspect-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Extract the numeric value of `"key":N` from a JSON-lines record; 0 when
/// absent. Enough structure for these assertions without a JSON DOM.
std::uint64_t json_u64_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + needle.size()));
}

bool has_event(const std::string& line, const std::string& event) {
  return line.find("\"event\":\"" + event + "\"") != std::string::npos;
}

/// Session threads finish their bookkeeping (span record, metric flush,
/// served counter) after the response reaches the client; poll instead of
/// racing them.
bool wait_counter_at_least(const char* name, std::uint64_t target) {
  auto& counter = obs::MetricsRegistry::global().counter(name);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter.value() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class IntrospectionE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& logger = obs::Logger::global();
    logger.set_json(true);
    logger.set_level(obs::LogLevel::kDebug);
    logger.set_sink([this](std::string_view line) {
      const std::lock_guard<std::mutex> guard(lines_mu_);
      lines_.emplace_back(line);
    });
  }

  void TearDown() override {
    if (server_ != nullptr) server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
    auto& logger = obs::Logger::global();
    logger.set_sink(nullptr);
    logger.set_json(false);
    logger.set_level(obs::LogLevel::kInfo);
    obs::TraceRecorder::global().disable();
    obs::TraceRecorder::global().clear();
  }

  void start(const SchedulerLimits& limits = {},
             std::uint64_t slow_request_us = 0) {
    ServerConfig config;
    config.socket_path = unique_socket_path();
    config.limits = limits;
    config.slow_request_us = slow_request_us;
    server_ = std::make_unique<Server>(config);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  const std::string& path() const { return server_->socket_path(); }

  std::vector<std::string> captured_lines() {
    const std::lock_guard<std::mutex> guard(lines_mu_);
    return lines_;
  }

  std::unique_ptr<Server> server_;
  std::thread server_thread_;
  std::mutex lines_mu_;
  std::vector<std::string> lines_;
};

TEST_F(IntrospectionE2ETest, TwoTenantsFourSessionsAcceptance) {
  obs::TraceRecorder::global().enable();
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t accepted0 =
      reg.counter("service.sessions_accepted").value();
  const std::uint64_t served0 =
      reg.counter("service.sessions_served").value();
  start();

  constexpr int kTenants = 2;
  constexpr int kSessionsPerTenant = 4;
  std::mutex ids_mu;
  std::set<std::uint64_t> session_ids;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    for (int s = 0; s < kSessionsPerTenant; ++s) {
      threads.emplace_back([this, t, s, &ids_mu, &session_ids] {
        const Bytes data = testing::random_bytes(
            512 * 1024, static_cast<std::uint64_t>(9000 + t * 100 + s));
        Client client(path(), "tenant-" + std::to_string(t));
        {
          const std::lock_guard<std::mutex> guard(ids_mu);
          EXPECT_TRUE(session_ids.insert(client.session_id()).second)
              << "request ids must not collide";
        }
        const BackupDoneResponse done =
            client.backup("s" + std::to_string(s), ByteView(data));
        EXPECT_EQ(client.restore(done.backup_id), data);
      });
    }
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(session_ids.size(),
            static_cast<std::size_t>(kTenants * kSessionsPerTenant));
  // The served counter ticks after each session's final bookkeeping, so
  // once it reaches 8 every span, log line and release has landed.
  ASSERT_TRUE(wait_counter_at_least(
      "service.sessions_served",
      served0 + static_cast<std::uint64_t>(kTenants * kSessionsPerTenant)));

  // (d) STATS counts match the run: 8 accepted, none still active.
  const StatsResponse stats = fetch_stats(path());
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.sessions_accepted - accepted0,
            static_cast<std::uint64_t>(kTenants * kSessionsPerTenant));
  ASSERT_EQ(stats.tenants.size(), static_cast<std::size_t>(kTenants));
  for (const TenantStatsRow& row : stats.tenants) {
    EXPECT_EQ(row.backups,
              static_cast<std::uint64_t>(kSessionsPerTenant));
    EXPECT_EQ(row.active_sessions, 0u);
    EXPECT_GT(row.logical_bytes, 0u);
  }
  const HealthResponse health = fetch_health(path());
  EXPECT_TRUE(health.serving);
  EXPECT_EQ(health.protocol_version, kProtocolVersion);

  // (a) Structured logs: valid JSON lines; every session-scoped event
  // carries a rid, and the set of logged rids is exactly the session ids
  // the clients were handed in HELLO_OK.
  std::set<std::uint64_t> logged_rids;
  for (const std::string& line : captured_lines()) {
    EXPECT_TRUE(testing::JsonChecker::valid(line)) << line;
    if (has_event(line, "session.start") || has_event(line, "session.end") ||
        has_event(line, "session.backup") ||
        has_event(line, "session.restore") ||
        has_event(line, "catalog.commit")) {
      const std::uint64_t rid = json_u64_field(line, "rid");
      EXPECT_NE(rid, 0u) << "session-scoped line without rid: " << line;
      if (has_event(line, "session.start")) logged_rids.insert(rid);
    }
  }
  EXPECT_EQ(logged_rids, session_ids);

  // (b) The trace groups service spans by request id: every session's rid
  // shows up on service.backup spans, and the Chrome JSON materializes the
  // per-rid synthetic tracks.
  std::set<std::uint64_t> traced_rids;
  for (const obs::TraceEvent& e : obs::TraceRecorder::global().events()) {
    if (e.name == "service.backup") traced_rids.insert(e.rid);
  }
  EXPECT_EQ(traced_rids, session_ids);
  std::ostringstream os;
  obs::TraceRecorder::global().write_chrome_json(os);
  const std::string trace_json = os.str();
  EXPECT_TRUE(testing::JsonChecker::valid(trace_json));
  for (const std::uint64_t rid : session_ids) {
    EXPECT_NE(trace_json.find("rid " + std::to_string(rid)),
              std::string::npos);
  }

  // (c) The METRICS export carries the per-request latency histograms.
  // (Last: this reader is its own session and would add its rid to the
  // log, which the assertions above pin to exactly the 8 backup sessions.)
  Client metrics_reader(path(), "metrics-reader");
  const std::string metrics = metrics_reader.metrics_json();
  EXPECT_NE(metrics.find("service.request.hello_us"), std::string::npos);
  EXPECT_NE(metrics.find("service.request.backup_us"), std::string::npos);
  EXPECT_NE(metrics.find("service.request.restore_us"), std::string::npos);
  metrics_reader.close();
}

TEST_F(IntrospectionE2ETest, StatsAnswersWhileFullAndCountsRejections) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t rejected0 =
      reg.counter("service.sessions_rejected").value();
  SchedulerLimits limits;
  limits.max_sessions = 2;
  limits.max_sessions_per_tenant = 2;
  start(limits);

  // Fill the server, then verify the overflow is rejected...
  Client a(path(), "holder");
  Client b(path(), "holder");
  EXPECT_THROW(Client(path(), "holder"), RejectedError);

  // ...while STATS and HEALTH still answer on unadmitted connections.
  const StatsResponse stats = fetch_stats(path());
  EXPECT_EQ(stats.active_sessions, 2u);
  EXPECT_EQ(stats.max_sessions, 2u);
  EXPECT_EQ(stats.sessions_rejected - rejected0, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, "holder");
  EXPECT_EQ(stats.tenants[0].active_sessions, 2u);
  EXPECT_EQ(stats.tenants[0].session_quota, 2u);
  EXPECT_TRUE(fetch_health(path()).serving);

  // The rejection was logged with its reason.
  bool saw_reject = false;
  for (const std::string& line : captured_lines()) {
    if (has_event(line, "session.reject")) saw_reject = true;
  }
  EXPECT_TRUE(saw_reject);
}

TEST_F(IntrospectionE2ETest, SlowRequestsAreLoggedOverThreshold) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t slow0 = reg.counter("service.requests_slow").value();
  start({}, /*slow_request_us=*/1);  // 1us: every real backup is "slow"

  const Bytes data = testing::random_bytes(256 * 1024, 4242);
  Client client(path(), "sluggish");
  client.backup("gen", ByteView(data));
  client.close();

  // The slow-request record lands after the response; poll for it.
  EXPECT_TRUE(wait_counter_at_least("service.requests_slow", slow0 + 1));
  bool saw_slow = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!saw_slow && std::chrono::steady_clock::now() < deadline) {
    for (const std::string& line : captured_lines()) {
      if (has_event(line, "service.slow_request")) {
        saw_slow = true;
        EXPECT_NE(line.find("\"op\":\"backup\""), std::string::npos);
        EXPECT_NE(json_u64_field(line, "rid"), 0u) << line;
      }
    }
    if (!saw_slow) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_slow);
}

}  // namespace
}  // namespace defrag::service
