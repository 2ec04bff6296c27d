// End-to-end defrag-serve tests: a real Server on a real AF_UNIX socket,
// driven by real Clients from this process. Covers the ISSUE acceptance
// scenarios in-process (tools/service_smoke.sh covers them again across
// process boundaries): concurrent multi-tenant sessions with bit-identical
// restores, tenant namespace isolation over the shared store, admission
// rejection, malformed-frame handling and drain-on-shutdown. Running under
// TSan (the CI sanitizer jobs run this binary) additionally proves the
// session threads are joined and race-free.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "service/wire.h"
#include "testing/data.h"

namespace defrag::service {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  // Short path: sockaddr_un caps at ~107 bytes.
  return "/tmp/defrag-e2e-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Counters are updated by session threads; poll briefly instead of racing.
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

class ServiceE2ETest : public ::testing::Test {
 protected:
  void start(const SchedulerLimits& limits = {}) {
    ServerConfig config;
    config.socket_path = unique_socket_path();
    config.limits = limits;
    server_ = std::make_unique<Server>(config);  // binds before returning
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_ != nullptr) server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  const std::string& path() const { return server_->socket_path(); }

  std::unique_ptr<Server> server_;
  std::thread server_thread_;
};

TEST_F(ServiceE2ETest, BackupThenRestoreIsBitIdentical) {
  start();
  const Bytes data = testing::random_bytes(2 << 20, 7001);
  Client client(path(), "acme");
  const BackupDoneResponse done = client.backup("gen-0", ByteView(data));
  EXPECT_EQ(done.backup_id, 1u);
  EXPECT_EQ(done.logical_bytes, data.size());
  EXPECT_EQ(done.unique_bytes + done.dup_bytes, done.logical_bytes);
  EXPECT_GT(done.chunk_count, 0u);

  const BackupListResponse listing = client.list();
  ASSERT_EQ(listing.backups.size(), 1u);
  EXPECT_EQ(listing.backups[0].label, "gen-0");

  RestoreDoneResponse rdone;
  const Bytes restored = client.restore(done.backup_id, &rdone);
  EXPECT_EQ(restored, data);
  EXPECT_EQ(rdone.logical_bytes, data.size());
  EXPECT_GT(rdone.container_loads, 0u);
}

// The point of multi-tenancy over one store: a second tenant writing the
// same content stores (almost) nothing new, yet addresses it through its
// own namespace.
TEST_F(ServiceE2ETest, CrossTenantDataDedupsInSharedStore) {
  start();
  const Bytes data = testing::random_bytes(1 << 20, 7002);
  Client a(path(), "acme");
  const BackupDoneResponse first = a.backup("base", ByteView(data));
  EXPECT_GT(first.unique_bytes, 0u);

  Client b(path(), "globex");
  const BackupDoneResponse second = b.backup("base", ByteView(data));
  EXPECT_EQ(second.unique_bytes, 0u);
  EXPECT_EQ(second.dup_bytes, data.size());
  // Both tenants restore their own copy bit-identically.
  EXPECT_EQ(a.restore(first.backup_id), data);
  EXPECT_EQ(b.restore(second.backup_id), data);
}

TEST_F(ServiceE2ETest, TenantNamespacesAreIsolated) {
  start();
  const Bytes data = testing::random_bytes(256 * 1024, 7003);
  Client a(path(), "acme");
  const BackupDoneResponse done = a.backup("secret", ByteView(data));

  Client b(path(), "globex");
  EXPECT_TRUE(b.list().backups.empty());
  // Backup ids are per-tenant: acme's id 1 does not resolve for globex.
  EXPECT_THROW(b.restore(done.backup_id), RemoteError);
  // The failed restore is an ERROR, not a connection teardown: the same
  // session keeps working.
  const BackupDoneResponse own = b.backup("mine", ByteView(data));
  EXPECT_EQ(own.backup_id, 1u);
  EXPECT_EQ(a.restore(done.backup_id), data);
}

// ISSUE acceptance: >= 8 concurrent sessions across >= 2 tenants, every
// restore bit-identical. Sessions share a content base (cross-session
// dedup) and append a private tail (unique placement per session).
TEST_F(ServiceE2ETest, EightConcurrentSessionsTwoTenantsBitIdentical) {
  SchedulerLimits limits;
  limits.max_sessions = 8;
  limits.max_sessions_per_tenant = 4;
  start(limits);
  const Bytes base = testing::random_bytes(512 * 1024, 7100);

  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    for (int s = 0; s < 4; ++s) {
      threads.emplace_back([this, &base, &ok, t, s] {
        const std::string tenant = "tenant-" + std::to_string(t);
        Bytes data = base;
        const Bytes tail = testing::random_bytes(
            128 * 1024, 7200 + static_cast<std::uint64_t>(t * 10 + s));
        data.insert(data.end(), tail.begin(), tail.end());

        Client client(path(), tenant);
        const BackupDoneResponse done =
            client.backup("s" + std::to_string(s), ByteView(data));
        if (client.restore(done.backup_id) == data) ok.fetch_add(1);
      });
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8);
  EXPECT_GE(server_->catalog().tenant_count(), 2u);
}

TEST_F(ServiceE2ETest, OverQuotaSessionIsRejectedCleanly) {
  SchedulerLimits limits;
  limits.max_sessions = 8;
  limits.max_sessions_per_tenant = 2;
  start(limits);

  std::vector<Client> held;
  held.emplace_back(path(), "acme");
  held.emplace_back(path(), "acme");
  // Third concurrent acme session breaches the tenant quota...
  EXPECT_THROW(Client(path(), "acme"), RejectedError);
  // ...but another tenant is unaffected.
  EXPECT_NO_THROW(held.emplace_back(path(), "globex"));
  // Closing one acme session frees its slot.
  held.front().close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->scheduler().active_for("acme") > 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NO_THROW(held.emplace_back(path(), "acme"));
}

TEST_F(ServiceE2ETest, MalformedFrameGetsErrorResponse) {
  start();
  const std::uint64_t before =
      obs::MetricsRegistry::global().counter("service.wire_errors").value();

  Conn conn = connect_unix(path());
  HelloRequest hello;
  hello.tenant = "fuzzer";
  conn.send_frame(ByteView(encode(hello)));
  std::optional<Bytes> reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_type(ByteView(*reply)), FrameType::kHelloOk);

  // RESTORE with an empty body: well-typed frame, truncated payload.
  conn.send_frame(ByteView(encode_empty(FrameType::kRestore)));
  reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(frame_type(ByteView(*reply)), FrameType::kError);
  // The server closes the connection after a wire error.
  EXPECT_FALSE(conn.recv_frame().has_value());
  EXPECT_TRUE(wait_counter_at_least("service.wire_errors", before + 1));
}

// A peer that promises a 16-byte payload and hangs up mid-frame: the
// session must record a wire error and tear down — never block or crash.
TEST_F(ServiceE2ETest, TruncatedFrameCountsWireError) {
  start();
  const std::uint64_t before =
      obs::MetricsRegistry::global().counter("service.wire_errors").value();
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path().size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path().c_str(), path().size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const unsigned char partial[] = {16, 0, 0, 0, 0x05};
    ASSERT_EQ(::send(fd, partial, sizeof(partial), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(fd);
  }
  EXPECT_TRUE(wait_counter_at_least("service.wire_errors", before + 1));
}

TEST_F(ServiceE2ETest, ProtocolVersionMismatchRejected) {
  start();
  Conn conn = connect_unix(path());
  conn.send_frame(ByteView(encode(HelloRequest{kProtocolVersion + 1, "new"})));
  const std::optional<Bytes> reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(frame_type(ByteView(*reply)), FrameType::kRejected);
}

TEST_F(ServiceE2ETest, MetricsExportCarriesTenantScopes) {
  start();
  const Bytes data = testing::random_bytes(256 * 1024, 7005);
  Client client(path(), "metrics-tenant");
  client.backup("gen", ByteView(data));
  const std::string json = client.metrics_json();
  EXPECT_NE(json.find("defrag.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("service.sessions_accepted"), std::string::npos);
  EXPECT_NE(json.find("service.tenant.metrics_tenant."), std::string::npos);
}

// SHUTDOWN drains: the in-flight requester gets its OK, an idle session
// sees EOF, run() returns, and every session thread is joined (TSan-
// checked via the CI sanitizer build of this test).
TEST_F(ServiceE2ETest, ShutdownRequestDrainsAndExits) {
  start();
  Client idle(path(), "idle-tenant");
  Client stopper(path(), "stopper");
  stopper.shutdown_server();
  server_thread_.join();  // run() returned => drain finished
  EXPECT_EQ(server_->scheduler().active_sessions(), 0u);
}

// A backup caught mid-flight by a drain still completes: drain uses
// SHUT_RD, so the session finishes the operation and writes BACKUP_DONE.
TEST_F(ServiceE2ETest, DrainLetsInFlightBackupComplete) {
  start();
  const Bytes data = testing::random_bytes(1 << 20, 7006);
  Client client(path(), "acme");
  // jthread: joined on every path, an unexpected exception included.
  std::jthread stopper([this] { server_->request_stop(); });
  // Race the drain deliberately; whichever wins, the backup must either
  // complete fully or fail with a clean connection error — never hang.
  try {
    const BackupDoneResponse done = client.backup("racing", ByteView(data));
    EXPECT_EQ(done.logical_bytes, data.size());
  } catch (const SocketError&) {
  } catch (const WireError&) {
  }
  stopper.join();
  server_thread_.join();
}

// The deterministic form of the race above: the drain begins after
// BACKUP_BEGIN is acknowledged and before BACKUP_END. A backup spans many
// frames, so the drain must leave this session's read side open until the
// backup ends; the session answers a full BACKUP_DONE, then stops reading.
TEST_F(ServiceE2ETest, DrainBetweenBackupBeginAndEndStillCompletes) {
  start();
  const Bytes data = testing::random_bytes(1 << 20, 7007);
  Conn conn = connect_unix(path());
  conn.send_frame(ByteView(encode(HelloRequest{kProtocolVersion, "acme"})));
  std::optional<Bytes> reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_type(ByteView(*reply)), FrameType::kHelloOk);
  BackupBeginRequest begin;
  begin.label = "drained";
  conn.send_frame(ByteView(encode(begin)));
  reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_type(ByteView(*reply)), FrameType::kOk);

  std::jthread stopper([this] { server_->request_stop(); });
  // draining() turns true under the same lock that shuts read sides down.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!server_->scheduler().draining()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  conn.send_frame(encode_backup_data(ByteView(data)));
  conn.send_frame(ByteView(encode_empty(FrameType::kBackupEnd)));
  reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_type(ByteView(*reply)), FrameType::kBackupDone);
  const BackupDoneResponse done = parse_backup_done(frame_body(*reply));
  EXPECT_EQ(done.backup_id, 1u);
  EXPECT_EQ(done.logical_bytes, data.size());
  // Having answered, the session stops reading and closes.
  EXPECT_FALSE(conn.recv_frame().has_value());
  stopper.join();
  server_thread_.join();
}

}  // namespace
}  // namespace defrag::service
