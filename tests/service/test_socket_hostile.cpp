// Hostile-peer tests for the service wire path.
//
// Two trust boundaries are exercised with raw bytes no honest peer sends:
//
//  - Conn::recv_frame over a socketpair: the frame-length cap must be
//    enforced BEFORE the payload allocation (a 4-byte header claiming
//    kMaxFramePayload+1 is rejected having allocated nothing — the
//    bounded-memory guarantee src/service/socket.cpp documents), and
//    truncation mid-frame is a WireError, never a hang or a crash. The
//    same holds for a Session inside a backup, which receives BACKUP_DATA
//    bodies into its ingest stream's buffer instead of recv_frame()'s.
//
//  - Client against a hostile *server*: a scripted fake server on a real
//    AF_UNIX listener answers with truncated, oversized, mistyped and
//    garbage replies. Every one must surface as WireError/RemoteError on
//    the client — the defrag-client tool runs on operator machines, so the
//    server is untrusted input to it just as clients are to the daemon.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "core/parallel_ingest.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "service/wire.h"

namespace defrag::service {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/defrag-hostile-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Attacker side stays a raw fd (Conn's write path refuses to emit the
/// malformed bytes these tests need); victim side is the real Conn.
struct RawVsConn {
  int attacker_fd;
  Conn victim;

  ~RawVsConn() {
    if (attacker_fd >= 0) ::close(attacker_fd);
  }

  void attacker_send(const Bytes& bytes) const {
    ASSERT_EQ(::send(attacker_fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  void attacker_close() {
    ::close(attacker_fd);
    attacker_fd = -1;
  }
};

RawVsConn local_pair() {
  int fds[2];
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  return RawVsConn{fds[0], Conn(fds[1])};
}

Bytes le32(std::uint32_t v) {
  Bytes b;
  WireWriter w(b);
  w.u32(v);
  return b;
}

// ---------------------------------------------------------------------------
// Conn::recv_frame with hostile headers.

TEST(SocketHostileTest, OversizedFrameHeaderRejectedBeforeAllocation) {
  RawVsConn p = local_pair();
  // Header only — the claimed 64MiB+1 payload is never sent. If recv_frame
  // allocated first and read later, this would block forever waiting for
  // the payload; the cap check firing on 4 received bytes proves the
  // reject-before-allocate order.
  p.attacker_send(le32(kMaxFramePayload + 1));
  EXPECT_THROW((void)p.victim.recv_frame(), WireError);
}

TEST(SocketHostileTest, MaxSizeFrameHeaderIsAcceptedAtTheBoundary) {
  // Exactly kMaxFramePayload must still be legal (boundary pin so the cap
  // cannot silently drift off-by-one).
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  Conn sender(fds[0]);
  Conn receiver(fds[1]);
  Bytes payload(kMaxFramePayload, 0x5a);
  std::thread writer([&] { sender.send_frame(ByteView(payload)); });
  const std::optional<Bytes> got = receiver.recv_frame();
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), kMaxFramePayload);
}

TEST(SocketHostileTest, ZeroLengthFrameRejected) {
  RawVsConn p = local_pair();
  p.attacker_send(le32(0));
  EXPECT_THROW((void)p.victim.recv_frame(), WireError);
}

TEST(SocketHostileTest, TruncatedPayloadIsWireError) {
  RawVsConn p = local_pair();
  Bytes partial = le32(10);
  partial.insert(partial.end(), {1, 2, 3});  // 3 of the promised 10 bytes
  p.attacker_send(partial);
  p.attacker_close();
  EXPECT_THROW((void)p.victim.recv_frame(), WireError);
}

TEST(SocketHostileTest, TruncatedHeaderIsWireError) {
  RawVsConn p = local_pair();
  p.attacker_send(Bytes{0x12, 0x34});
  p.attacker_close();
  EXPECT_THROW((void)p.victim.recv_frame(), WireError);
}

TEST(SocketHostileTest, CleanEofBetweenFramesIsNotAnError) {
  RawVsConn p = local_pair();
  p.attacker_close();
  EXPECT_EQ(p.victim.recv_frame(), std::nullopt);
}

TEST(SocketHostileTest, SendFrameRefusesOversizedAndEmptyPayloads) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  Conn a(fds[0]);
  Conn b(fds[1]);
  const Bytes empty;
  EXPECT_THROW(a.send_frame(ByteView(empty)), WireError);
  const Bytes oversized(kMaxFramePayload + 1, 0);
  EXPECT_THROW(a.send_frame(ByteView(oversized)), WireError);
}

// ---------------------------------------------------------------------------
// A session receiving BACKUP_DATA straight into its ingest stream's buffer.

TEST(SocketHostileTest, OversizedBackupDataHeaderRejectedInsideBackup) {
  // Inside a backup the session sizes its stream's buffer by the frame
  // length; the cap must still fire on the 4 header bytes alone. Only the
  // header is sent, so a session that sized the buffer first would wait
  // for a body that never comes instead of answering ERROR.
  SessionScheduler scheduler{SchedulerLimits{}};
  TenantCatalog catalog;
  ParallelIngestor ingestor;
  std::atomic<std::uint64_t> next_id{1};
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const SessionEnv env{.scheduler = scheduler,
                       .catalog = catalog,
                       .ingestor = ingestor,
                       .request_stop = [] {},
                       .server_start = std::chrono::steady_clock::now(),
                       .limits = SchedulerLimits{},
                       .slow_request_us = 0,
                       .next_request_id = &next_id};
  std::thread session([fd = fds[1], env] { Session(Conn(fd), env).run(); });
  Conn client(fds[0]);
  // A wrong order shows up as a receive timeout, not a hung test.
  const timeval timeout{10, 0};
  EXPECT_EQ(0, ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                            sizeof timeout));
  const auto reply = [&client]() -> std::optional<Bytes> {
    try {
      return client.recv_frame();
    } catch (const SocketError& e) {
      ADD_FAILURE() << "no reply: " << e.what();
      return std::nullopt;
    }
  };
  HelloRequest hello;
  hello.tenant = "hostile";
  client.send_frame(encode(hello));
  const std::optional<Bytes> hello_ok = reply();
  BackupBeginRequest begin;
  begin.label = "capped";
  client.send_frame(encode(begin));
  const std::optional<Bytes> ok = reply();
  const std::uint64_t rejected_before =
      obs::MetricsRegistry::global().counter("service.wire_errors").value();
  // Raw bytes: send_frame() refuses an oversized payload.
  const Bytes header = le32(kMaxFramePayload + 1);
  EXPECT_EQ(::send(client.fd(), header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  const std::optional<Bytes> error = reply();
  const bool closed = !error.has_value() || !reply().has_value();
  client.close();  // unblocks the session whatever it is waiting for
  session.join();
  scheduler.drain();

  ASSERT_TRUE(hello_ok.has_value() && ok.has_value());
  EXPECT_EQ(frame_type(*hello_ok), FrameType::kHelloOk);
  EXPECT_EQ(frame_type(*ok), FrameType::kOk);
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(frame_type(*error), FrameType::kError);
  EXPECT_EQ(parse_reason(frame_body(*error)), "frame length exceeds cap");
  EXPECT_TRUE(closed) << "the session kept reading after a capped header";
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("service.wire_errors").value(),
      rejected_before + 1);
  // The failed backup committed nothing and left no claim behind.
  EXPECT_EQ(catalog.list("hostile").size(), 0u);
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
}

// ---------------------------------------------------------------------------
// Client vs a hostile server.

/// Runs `script` as the accepted server side of one client connection.
/// The script gets the raw Conn; whatever it sends is the "server".
class HostileServer {
 public:
  explicit HostileServer(std::function<void(Conn&)> script)
      : path_(unique_socket_path()), listener_(path_) {
    EXPECT_EQ(0, ::pipe(stop_pipe_));
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = listener_.accept_or_stop(stop_pipe_[0]);
      if (fd < 0) return;
      Conn conn(fd);
      script(conn);
    });
  }

  ~HostileServer() {
    // Wake the accept loop if no client ever connected.
    const char byte = 1;
    (void)::write(stop_pipe_[1], &byte, 1);
    thread_.join();
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Listener listener_;
  int stop_pipe_[2] = {-1, -1};
  std::thread thread_;
};

/// Completes the HELLO/HELLO_OK handshake server-side so the test can get
/// a constructed Client, then hands the connection to `after_hello`.
std::function<void(Conn&)> hello_then(std::function<void(Conn&)> after_hello) {
  return [after_hello = std::move(after_hello)](Conn& conn) {
    const std::optional<Bytes> hello = conn.recv_frame();
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ(frame_type(*hello), FrameType::kHello);
    HelloOkResponse ok;
    ok.session_id = 99;
    conn.send_frame(encode(ok));
    after_hello(conn);
  };
}

TEST(ClientHostileServerTest, GarbageFrameTypeInHandshakeIsWireError) {
  HostileServer server([](Conn& conn) {
    (void)conn.recv_frame();  // swallow HELLO
    const Bytes garbage = {0x7f, 0xde, 0xad};  // 0x7f is no FrameType
    conn.send_frame(ByteView(garbage));
  });
  EXPECT_THROW(Client(server.path(), "tenant"), WireError);
}

TEST(ClientHostileServerTest, TruncatedHelloOkBodyIsWireError) {
  HostileServer server([](Conn& conn) {
    (void)conn.recv_frame();
    // HELLO_OK whose u64 session id is cut to 3 bytes.
    Bytes payload;
    WireWriter w(payload);
    w.u8(static_cast<std::uint8_t>(FrameType::kHelloOk));
    w.raw(Bytes{1, 2, 3});
    conn.send_frame(ByteView(payload));
  });
  EXPECT_THROW(Client(server.path(), "tenant"), WireError);
}

TEST(ClientHostileServerTest, OversizedHelloOkBodyIsWireError) {
  HostileServer server([](Conn& conn) {
    (void)conn.recv_frame();
    HelloOkResponse ok;
    ok.session_id = 1;
    Bytes payload = encode(ok);
    payload.push_back(0xcc);  // trailing garbage after a valid body
    conn.send_frame(ByteView(payload));
  });
  EXPECT_THROW(Client(server.path(), "tenant"), WireError);
}

TEST(ClientHostileServerTest, ServerClosingMidHandshakeIsWireError) {
  HostileServer server([](Conn& conn) {
    (void)conn.recv_frame();
    conn.close();
  });
  EXPECT_THROW(Client(server.path(), "tenant"), WireError);
}

TEST(ClientHostileServerTest, RestoreStreamBeyondCapIsWireError) {
  // Cap lowered to 64KiB via the constructor knob so the test proves the
  // cap fires without streaming the real 1GiB default.
  constexpr std::uint64_t kCap = 64u << 10;
  HostileServer server(hello_then([](Conn& conn) {
    (void)conn.recv_frame();  // RESTORE request
    const Bytes chunk(48u << 10, 0xab);
    // Two 48KiB RESTORE_DATA frames: the second crosses the 64KiB cap.
    conn.send_frame(encode_restore_data(ByteView(chunk)));
    conn.send_frame(encode_restore_data(ByteView(chunk)));
    // No RESTORE_DONE — the client must have bailed already.
  }));
  Client client(server.path(), "tenant", kCap);
  EXPECT_THROW((void)client.restore(1), WireError);
}

TEST(ClientHostileServerTest, RestoreDoneSizeMismatchIsWireError) {
  HostileServer server(hello_then([](Conn& conn) {
    (void)conn.recv_frame();
    const Bytes chunk(100, 0x11);
    conn.send_frame(encode_restore_data(ByteView(chunk)));
    RestoreDoneResponse done;
    done.logical_bytes = 99;  // lies about the streamed size
    conn.send_frame(encode(done));
  }));
  Client client(server.path(), "tenant");
  EXPECT_THROW((void)client.restore(1), WireError);
}

TEST(ClientHostileServerTest, UnexpectedFrameDuringRestoreIsWireError) {
  HostileServer server(hello_then([](Conn& conn) {
    (void)conn.recv_frame();
    conn.send_frame(encode_empty(FrameType::kOk));  // nonsense mid-restore
  }));
  Client client(server.path(), "tenant");
  EXPECT_THROW((void)client.restore(1), WireError);
}

TEST(ClientHostileServerTest, ErrorReplySurfacesAsRemoteErrorNotCrash) {
  HostileServer server(hello_then([](Conn& conn) {
    (void)conn.recv_frame();
    conn.send_frame(encode_error("no such backup"));
  }));
  Client client(server.path(), "tenant");
  EXPECT_THROW((void)client.restore(1), RemoteError);
}

TEST(ClientHostileServerTest, GarbageStatsBodyIsWireError) {
  HostileServer server(hello_then([](Conn& conn) {
    (void)conn.recv_frame();  // STATS request
    Bytes payload;
    WireWriter w(payload);
    w.u8(static_cast<std::uint8_t>(FrameType::kStatsResult));
    w.u32(0xffffffffu);  // absurd leading field, then nothing
    conn.send_frame(ByteView(payload));
  }));
  Client client(server.path(), "tenant");
  EXPECT_THROW((void)client.stats(), WireError);
}

}  // namespace
}  // namespace defrag::service
