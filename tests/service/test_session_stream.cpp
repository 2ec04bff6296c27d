// Streaming-session tests: Sessions driven directly over socketpairs (no
// listener), sharing one data plane. They pin the two properties streaming
// must keep:
//  - liveness: a backup stalled between BACKUP_DATA frames keeps its open
//    container parked, so another tenant whose restore needs that container
//    seals it instead of waiting on the stalled client;
//  - bounded memory: a backup holds one frame plus the chunker's max_size
//    carry, reported by service.session.buffer_high_water_bytes; a restore
//    holds no data buffer at all, and is still cut into full 1 MiB
//    RESTORE_DATA frames gathered straight from the containers.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "core/parallel_ingest.h"
#include "dedup/chunk_prep.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "storage/recipe.h"
#include "testing/data.h"

namespace defrag::service {
namespace {

constexpr std::size_t kFrame = 4u << 20;  // the client's BACKUP_DATA size
constexpr std::size_t kRestoreFrame = 1u << 20;  // the session's RESTORE_DATA

/// Receive one frame of type `want` and return its body.
Bytes expect(Conn& conn, FrameType want) {
  const std::optional<Bytes> payload = conn.recv_frame();
  if (!payload.has_value()) throw WireError("session closed");
  EXPECT_EQ(frame_type(*payload), want);
  return to_bytes(frame_body(*payload));
}

void send_data(Conn& conn, ByteView data) {
  for (std::size_t off = 0; off < data.size(); off += kFrame) {
    const std::size_t n = std::min(kFrame, data.size() - off);
    conn.send_frame(encode_backup_data(data.subspan(off, n)));
  }
}

void begin_backup(Conn& conn, const std::string& label) {
  BackupBeginRequest begin;
  begin.label = label;
  conn.send_frame(encode(begin));
  expect(conn, FrameType::kOk);
}

BackupDoneResponse end_backup(Conn& conn) {
  conn.send_frame(encode_empty(FrameType::kBackupEnd));
  return parse_backup_done(expect(conn, FrameType::kBackupDone));
}

/// Restore `id`; `frames` (optional) receives each RESTORE_DATA body size.
Bytes restore(Conn& conn, std::uint32_t id,
              std::vector<std::size_t>* frames = nullptr) {
  RestoreRequest req;
  req.backup_id = id;
  conn.send_frame(encode(req));
  Bytes out;
  for (;;) {
    const std::optional<Bytes> payload = conn.recv_frame();
    if (!payload.has_value()) throw WireError("session closed mid-restore");
    const ByteView body = frame_body(*payload);
    if (frame_type(*payload) == FrameType::kRestoreDone) {
      EXPECT_EQ(parse_restore_done(body).logical_bytes, out.size());
      return out;
    }
    EXPECT_EQ(frame_type(*payload), FrameType::kRestoreData);
    if (frames != nullptr) frames->push_back(body.size());
    out.insert(out.end(), body.begin(), body.end());
  }
}

class SessionStreamTest : public ::testing::Test {
 protected:
  SessionStreamTest() : scheduler_(SchedulerLimits{}) {}

  ~SessionStreamTest() override {
    clients_.clear();  // EOF ends every session loop
    for (std::thread& t : threads_) t.join();
    scheduler_.drain();
  }

  /// Run a Session on one end of a socketpair and HELLO as `tenant` on the
  /// other, which is returned.
  Conn& open_session(const std::string& tenant) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const SessionEnv env{.scheduler = scheduler_,
                         .catalog = catalog_,
                         .ingestor = ingestor_,
                         .request_stop = [] {},
                         .server_start = std::chrono::steady_clock::now(),
                         .limits = SchedulerLimits{},
                         .slow_request_us = 0,
                         .next_request_id = &next_id_};
    threads_.emplace_back([fd = fds[1], env] { Session(Conn(fd), env).run(); });
    Conn& conn = clients_.emplace_back(fds[0]);
    HelloRequest hello;
    hello.tenant = tenant;
    conn.send_frame(encode(hello));
    expect(conn, FrameType::kHelloOk);
    return conn;
  }

  SessionScheduler scheduler_;
  TenantCatalog catalog_;
  ParallelIngestor ingestor_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::thread> threads_;
  std::deque<Conn> clients_;
};

TEST_F(SessionStreamTest, StalledBackupNeverBlocksAnotherTenantsRestore) {
  // Under one container: tenant A's chunks all sit in its open container.
  const Bytes data = testing::random_bytes(1u << 20, 5101);
  Conn& a = open_session("stalled");
  begin_backup(a, "a");
  send_data(a, ByteView(data));
  // The HEALTH answer proves the frame was ingested; A's session now waits
  // for a frame its client never sends.
  a.send_frame(encode_empty(FrameType::kHealth));
  expect(a, FrameType::kHealthResult);
  const ContainerStore& store = ingestor_.store();
  ASSERT_EQ(store.container_count(), 1u);
  EXPECT_FALSE(store.sealed_visible(0));

  // Tenant B's copy dedups into A's open container, then B restores it.
  Conn& b = open_session("prompt");
  begin_backup(b, "b");
  send_data(b, ByteView(data));
  const BackupDoneResponse done = end_backup(b);
  EXPECT_GT(done.dup_bytes, 0u);
  std::future<Bytes> restored = std::async(std::launch::async, [&] {
    return restore(b, done.backup_id);
  });
  const bool finished = restored.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  EXPECT_TRUE(finished) << "restore blocked on a stalled backup";
  if (!finished) end_backup(a);  // unblock it so the test can finish
  EXPECT_EQ(restored.get(), data);
  if (!finished) return;
  EXPECT_TRUE(store.sealed_visible(0));  // sealed by B's restore

  // A resumes into a fresh container and its backup is intact.
  const Bytes more = testing::random_bytes(256u << 10, 5102);
  send_data(a, ByteView(more));
  const BackupDoneResponse a_done = end_backup(a);
  Bytes whole = data;
  whole.insert(whole.end(), more.begin(), more.end());
  EXPECT_EQ(a_done.logical_bytes, whole.size());
  EXPECT_EQ(restore(a, a_done.backup_id), whole);
  EXPECT_EQ(ingestor_.index().pending_claims(), 0u);
}

TEST_F(SessionStreamTest, BufferHighWaterStaysWithinPipelineBound) {
  // Spans three BACKUP_DATA and nine RESTORE_DATA frames.
  const Bytes data = testing::random_bytes(2 * kFrame + 12345, 5103);
  Conn& conn = open_session("bounded");
  begin_backup(conn, "big");
  send_data(conn, ByteView(data));
  const BackupDoneResponse done = end_backup(conn);
  std::vector<std::size_t> frames;
  EXPECT_EQ(restore(conn, done.backup_id, &frames), data);
  std::vector<std::size_t> want(2 * kFrame / kRestoreFrame, kRestoreFrame);
  want.push_back(12345);
  EXPECT_EQ(frames, want);

  // Only the backup's piece buffers count: at most hardware_threads() of
  // them, each one BACKUP_DATA body behind a max_size prefix for the
  // held-back tail. The restore sends from the containers.
  const double high_water =
      obs::MetricsRegistry::global()
          .gauge("service.session.buffer_high_water_bytes")
          .value();
  EXPECT_GE(high_water, static_cast<double>(kFrame));
  const std::uint64_t max_size = ingestor_.params().chunker.max_size;
  EXPECT_LE(high_water,
            static_cast<double>(hardware_threads() * (kFrame + max_size)));
}

TEST_F(SessionStreamTest, RestoreExtentsCountContainerRuns) {
  // One stream's unique data lies back to back in its containers, so its
  // restore sends one run per container, even where a run spans frames.
  const Bytes data = testing::random_bytes(6u << 20, 5104);
  Conn& conn = open_session("runs");
  begin_backup(conn, "runs");
  send_data(conn, ByteView(data));
  const BackupDoneResponse done = end_backup(conn);
  const std::shared_ptr<const Recipe> recipe =
      catalog_.find("runs", done.backup_id);
  ASSERT_NE(recipe, nullptr);
  ASSERT_GT(recipe->distinct_containers(), 1u);

  obs::Counter& extents =
      obs::MetricsRegistry::global().counter("service.restore.extents");
  const std::uint64_t before = extents.value();
  EXPECT_EQ(restore(conn, done.backup_id), data);
  EXPECT_EQ(extents.value() - before, recipe->distinct_containers());
}

}  // namespace
}  // namespace defrag::service
