// Fault-injection tests: every registered failpoint armed at least once
// (tools/throw_graph_lint.py enforces this pairing), proving the error
// paths the throw-graph analyzer certifies statically are also *executed*
// paths. Three layers:
//   - substrate-direct: store/index sites injected through their
//     public APIs, asserting the typed FailpointError surfaces and the
//     object survives for a clean retry;
//   - wire: frame send/recv sites injected on a socketpair, no server;
//   - service: sites injected under a live multi-tenant Server, asserting
//     the failing session reports a typed ERROR and dies cleanly while
//     concurrent tenants keep serving — including the acceptance scenario
//     (an injected CheckFailure leaves other tenants bit-identical).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "core/parallel_ingest.h"
#include "dedup/chunk_prep.h"
#include "dedup/restore_strategies.h"
#include "index/sharded_index.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "service/wire.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"
#include "testing/data.h"

namespace defrag::service {
namespace {

using failpoint::Action;
using failpoint::FailpointError;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/defrag-fault-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

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

class FaultInjectionTest : public ::testing::Test {
 protected:
  void start(const SchedulerLimits& limits = {}) {
    ServerConfig config;
    config.socket_path = unique_socket_path();
    config.limits = limits;
    server_ = std::make_unique<Server>(config);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    // Disarm before the drain: shutdown traffic must not consume or trip
    // leftover armings from a failed assertion path.
    failpoint::disarm_all();
    if (server_ != nullptr) server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  const std::string& path() const { return server_->socket_path(); }

  /// Arm `name` one-shot and run a backup of fresh data for `tenant`;
  /// the injected fault must surface as a typed ERROR frame (RemoteError
  /// client-side) and must have fired exactly once.
  void expect_backup_fault(const char* name, std::uint64_t seed) {
    const std::uint64_t before = failpoint::hit_count(name);
    const Bytes data = testing::random_bytes(512 * 1024, seed);
    Client client(path(), "faulty");
    failpoint::arm(name, Action::kThrow);
    EXPECT_THROW(client.backup("doomed", ByteView(data)), RemoteError)
        << "failpoint " << name;
    EXPECT_EQ(failpoint::hit_count(name), before + 1) << "failpoint " << name;
  }

  std::unique_ptr<Server> server_;
  std::thread server_thread_;
};

// ---- substrate-direct injections ------------------------------------------

TEST_F(FaultInjectionTest, SerialAppendFaultIsTypedAndRetryable) {
  ContainerStore store;
  DiskSim sim;
  const Bytes chunk = testing::random_bytes(4096, 9001);
  failpoint::arm("store.serial_append", Action::kThrow);
  EXPECT_THROW(store.append(Fingerprint::of(chunk), chunk, 0, sim),
               FailpointError);
  // The site fires before any mutation: the retry lands cleanly.
  EXPECT_NO_THROW(store.append(Fingerprint::of(chunk), chunk, 0, sim));
  EXPECT_EQ(store.container_count(), 1u);
}

TEST_F(FaultInjectionTest, SerialSealFaultIsTypedAndRetryable) {
  ContainerStore store;
  DiskSim sim;
  const Bytes chunk = testing::random_bytes(4096, 9002);
  store.append(Fingerprint::of(chunk), chunk, 0, sim);
  failpoint::arm("store.serial_seal", Action::kThrow);
  EXPECT_THROW(store.flush(), FailpointError);
  EXPECT_NO_THROW(store.flush());
  EXPECT_TRUE(store.peek(0).sealed());
}

TEST_F(FaultInjectionTest, StoreLoadFaultIsTypedAndRetryable) {
  ContainerStore store;
  DiskSim sim;
  const Bytes chunk = testing::random_bytes(4096, 9003);
  const ChunkLocation loc = store.append(Fingerprint::of(chunk), chunk, 0, sim);
  store.flush();
  failpoint::arm("store.load", Action::kThrow);
  EXPECT_THROW(store.load(loc.container, sim), FailpointError);
  EXPECT_NO_THROW(store.load(loc.container, sim));
}

TEST_F(FaultInjectionTest, IndexInsertFaultIsTypedAndRetryable) {
  ShardedPagedIndex index(8);
  DiskSim sim;
  const Fingerprint fp = Fingerprint::of(testing::random_bytes(64, 9004));
  const IndexValue value{ChunkLocation{0, 0, 4096}, kInvalidSegment};
  failpoint::arm("index.insert", Action::kThrow);
  EXPECT_THROW(index.insert(fp, value, sim), FailpointError);
  EXPECT_NO_THROW(index.insert(fp, value, sim));
  EXPECT_EQ(index.size(), 1u);
}

// ---- wire-layer injections (socketpair, no server, no races) ---------------

TEST_F(FaultInjectionTest, SendFrameFaultLeavesNoPartialFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn sender(fds[0]);
  Conn receiver(fds[1]);
  const Bytes payload = testing::random_bytes(128, 9005);

  failpoint::arm("service.send_frame", Action::kThrow);
  EXPECT_THROW(sender.send_frame(ByteView(payload)), FailpointError);
  // The site fires before the length header: nothing hit the wire, so the
  // retry produces one well-formed frame.
  sender.send_frame(ByteView(payload));
  const std::optional<Bytes> got = receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST_F(FaultInjectionTest, GatherSendFaultLeavesNoPartialFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn sender(fds[0]);
  Conn receiver(fds[1]);
  const Bytes head = testing::random_bytes(5, 9007);
  const Bytes tail = testing::random_bytes(300, 9008);
  const ByteView parts[] = {ByteView(head), ByteView(tail)};

  failpoint::arm("service.send_frame", Action::kThrow);
  EXPECT_THROW(sender.send_frame_gather(parts), FailpointError);
  // Same site, same order as send_frame(): nothing hit the wire before the
  // fault, so the retry is the first and only frame.
  sender.send_frame_gather(parts);
  const std::optional<Bytes> got = receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  Bytes want = head;
  want.insert(want.end(), tail.begin(), tail.end());
  EXPECT_EQ(*got, want);
}

TEST_F(FaultInjectionTest, RecvFrameFaultIsTypedAndRetryable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn sender(fds[0]);
  Conn receiver(fds[1]);
  const Bytes payload = testing::random_bytes(128, 9006);
  sender.send_frame(ByteView(payload));

  failpoint::arm("service.recv_frame", Action::kThrow);
  EXPECT_THROW(receiver.recv_frame(), FailpointError);
  // The frame is still queued in the socket buffer; the retry reads it.
  const std::optional<Bytes> got = receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST_F(FaultInjectionTest, StreamFaultWithPiecesInFlightLeavesStoreClean) {
  // Each committed piece goes to the helper pool. The failpoint is armed
  // before the first commit and fires in the first piece's placement,
  // which happens while a later piece is queued or running at the
  // earliest; the stream is then destroyed unfinished.
  for (const char* name : {"store.stream_append", "index.publish"}) {
    SCOPED_TRACE(name);
    ParallelIngestor ingestor;
    const Bytes kept = testing::random_bytes(3 * kPieceBytes / 2, 9020);
    Recipe kept_recipe;
    ingestor.ingest_stream(ByteView(kept), &kept_recipe);

    const Bytes doomed =
        testing::random_bytes((hardware_threads() + 2) * kPieceBytes, 9021);
    const std::uint64_t hits = failpoint::hit_count(name);
    failpoint::arm(name, Action::kThrow);
    {
      Recipe recipe;
      ParallelIngestor::Stream s(ingestor, &recipe);
      EXPECT_THROW(
          {
            for (std::size_t off = 0; off < doomed.size();
                 off += kPieceBytes) {
              std::copy_n(doomed.begin() + static_cast<std::ptrdiff_t>(off),
                          kPieceBytes, s.prepare(kPieceBytes));
              s.commit(kPieceBytes);
            }
            s.finish();
          },
          FailpointError);
    }
    EXPECT_EQ(failpoint::hit_count(name), hits + 1);
    EXPECT_EQ(ingestor.index().pending_claims(), 0u);
    const ContainerStore& store = ingestor.store();
    for (ContainerId id = 0; id < store.container_count(); ++id) {
      EXPECT_TRUE(store.sealed_visible(id)) << "container " << id;
    }
    // Restorable: the earlier backup, and the doomed bytes backed up anew.
    Bytes restored;
    restore_with_strategy(store, kept_recipe, ingestor.params().disk,
                          RestoreOptions{}, &restored);
    EXPECT_EQ(restored, kept);
    Recipe again;
    ingestor.ingest_stream(ByteView(doomed), &again);
    restored.clear();
    restore_with_strategy(store, again, ingestor.params().disk,
                          RestoreOptions{}, &restored);
    EXPECT_EQ(restored, doomed);
    EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  }
}

// ---- service-path injections: typed ERROR, session dies, daemon lives -----

TEST_F(FaultInjectionTest, StreamAppendFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("store.stream_append", 9010);
}

TEST_F(FaultInjectionTest, StreamSealFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("store.stream_seal", 9011);
}

TEST_F(FaultInjectionTest, IndexClaimFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("index.claim", 9012);
}

TEST_F(FaultInjectionTest, IndexPublishFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("index.publish", 9013);
}

TEST_F(FaultInjectionTest, IndexLookupFaultIsTypedAndRetryable) {
  // The service ingest only issues a charged lookup() on the cross-stream
  // pending-duplicate race path, so this site is injected substrate-direct.
  ShardedPagedIndex index(8);
  DiskSim sim;
  const Fingerprint fp = Fingerprint::of(testing::random_bytes(64, 9014));
  index.insert(fp, IndexValue{ChunkLocation{0, 0, 4096}, kInvalidSegment},
               sim);
  failpoint::arm("index.lookup", Action::kThrow);
  EXPECT_THROW(index.lookup(fp, sim), FailpointError);
  const std::optional<IndexValue> hit = index.lookup(fp, sim);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.container, 0u);
}

TEST_F(FaultInjectionTest, StoreLoadFaultFailsRestoreWithTypedError) {
  start();
  const Bytes data = testing::random_bytes(512 * 1024, 9015);
  Client client(path(), "faulty");
  const BackupDoneResponse done = client.backup("gen", ByteView(data));

  Client victim(path(), "faulty");
  failpoint::arm("store.load", Action::kThrow);
  EXPECT_THROW(victim.restore(done.backup_id), RemoteError);
  // The data is intact; a fresh session restores it bit-identically.
  Client retry(path(), "faulty");
  EXPECT_EQ(retry.restore(done.backup_id), data);
}

// The session ingests BACKUP_DATA frames as they arrive, so a connection
// fault between frames lands mid-ingest. The backup must fail with a typed
// error and leave nothing behind: no committed recipe, no unpublished
// claim, and a later backup of the same data restores bit-identically.
TEST_F(FaultInjectionTest, RecvFrameFaultMidBackupCommitsNothing) {
  start();
  constexpr std::size_t kFrame = 1 << 20;
  const Bytes data = testing::random_bytes(3 * kFrame, 9040);
  Conn conn = connect_unix(path());
  const auto expect = [&conn](FrameType want) {
    const std::optional<Bytes> payload = conn.recv_frame();
    EXPECT_TRUE(payload.has_value());
    if (!payload.has_value()) return Bytes{};
    EXPECT_EQ(frame_type(*payload), want);
    return to_bytes(frame_body(*payload));
  };
  HelloRequest hello;
  hello.tenant = "midstream";
  conn.send_frame(encode(hello));
  expect(FrameType::kHelloOk);
  BackupBeginRequest begin;
  begin.label = "doomed";
  conn.send_frame(encode(begin));
  expect(FrameType::kOk);
  for (std::size_t i = 0; i < 2; ++i) {
    conn.send_frame(
        encode_backup_data(ByteView(data).subspan(i * kFrame, kFrame)));
  }
  // The LIST answer proves both frames were ingested; nothing is listed
  // while the backup is open.
  conn.send_frame(encode_empty(FrameType::kList));
  EXPECT_TRUE(
      parse_backup_list(expect(FrameType::kBackupList)).backups.empty());

  // The session's next read faults: the one for the third frame or, if the
  // session already waits in that read, the one after it.
  const std::uint64_t before = failpoint::hit_count("service.recv_frame");
  failpoint::arm("service.recv_frame", Action::kThrow);
  try {
    conn.send_frame(
        encode_backup_data(ByteView(data).subspan(2 * kFrame, kFrame)));
  } catch (const SocketError&) {
    // The session died before reading this frame.
  }
  // Wait for the server's read to spend the arming before this thread
  // reads (the failpoint is process-wide).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (failpoint::hit_count("service.recv_frame") == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(failpoint::hit_count("service.recv_frame"), before + 1);
  expect(FrameType::kError);

  Client after(path(), "midstream");
  EXPECT_TRUE(after.list().backups.empty());
  EXPECT_EQ(server_->ingestor().index().pending_claims(), 0u);
  const BackupDoneResponse done = after.backup("kept", ByteView(data));
  EXPECT_EQ(done.logical_bytes, data.size());
  EXPECT_EQ(after.restore(done.backup_id), data);
}

// A failed session is ONE dead session, not a dead daemon: the error is
// counted, the peer gets a typed ERROR, and other tenants never notice.
TEST_F(FaultInjectionTest, InjectedFaultLeavesOtherTenantsServing) {
  start();
  const Bytes stable_data = testing::random_bytes(1 << 20, 9020);
  Client stable(path(), "stable");
  const BackupDoneResponse kept = stable.backup("keep", ByteView(stable_data));

  expect_backup_fault("store.stream_append", 9021);

  // The long-lived session of the other tenant is untouched.
  EXPECT_EQ(stable.restore(kept.backup_id), stable_data);
}

// ISSUE acceptance: a CheckFailure injected into one session's work leaves
// every concurrent tenant bit-identical on restore. store.load runs on the
// session thread, so this exercises Session::run's CheckFailure handler
// (the declared catch boundary), the internal-error metric, and admission
// of new sessions afterwards.
TEST_F(FaultInjectionTest, InjectedCheckFailureKillsOneSessionOnly) {
  start();
  const Bytes stable_data = testing::random_bytes(1 << 20, 9030);
  Client stable(path(), "stable");
  const BackupDoneResponse kept = stable.backup("keep", ByteView(stable_data));

  const Bytes faulty_data = testing::random_bytes(512 * 1024, 9031);
  Client faulty(path(), "faulty");
  const BackupDoneResponse done = faulty.backup("mine", ByteView(faulty_data));

  const std::uint64_t errors_before = obs::MetricsRegistry::global()
                                          .counter("service.session_internal_errors")
                                          .value();
  failpoint::arm("store.load", Action::kCheck);
  EXPECT_THROW(faulty.restore(done.backup_id), RemoteError);
  EXPECT_TRUE(
      wait_counter_at_least("service.session_internal_errors",
                            errors_before + 1));

  // The concurrent tenant's session never blinked, and its data is
  // bit-identical.
  EXPECT_EQ(stable.restore(kept.backup_id), stable_data);
  // The daemon still admits sessions — including for the faulted tenant —
  // and the faulted tenant's own data survived the injected failure.
  Client fresh(path(), "faulty");
  EXPECT_EQ(fresh.restore(done.backup_id), faulty_data);
}

}  // namespace
}  // namespace defrag::service
