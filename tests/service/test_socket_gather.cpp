// Conn::send_frame_gather: one frame written straight from many buffers.
//
// The restore path sends each RESTORE_DATA frame as a list of views into
// containers, so the gather send must produce exactly the frame a single
// buffer would: resumed correctly after partial writes, over more parts
// than one sendmsg() takes (IOV_MAX), with empty parts skipped, and with a
// bad total rejected before a single byte reaches the wire.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "service/socket.h"
#include "service/wire.h"
#include "testing/data.h"

namespace defrag::service {
namespace {

struct Pair {
  Conn sender;
  Conn receiver;
};

Pair local_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return Pair{Conn(fds[0]), Conn(fds[1])};
}

/// True when nothing at all is queued for `conn` to read.
bool wire_is_empty(const Conn& conn) {
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(conn.fd(), &byte, 1, MSG_DONTWAIT);
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

/// Cut `data` into parts of the sizes in `sizes`, cycling until it ends.
std::vector<ByteView> cut(const Bytes& data,
                          const std::vector<std::size_t>& sizes) {
  std::vector<ByteView> parts;
  std::size_t off = 0;
  for (std::size_t i = 0; off < data.size(); ++i) {
    const std::size_t n = std::min(sizes[i % sizes.size()], data.size() - off);
    parts.push_back(ByteView(data).subspan(off, n));
    off += n;
  }
  return parts;
}

std::atomic<int> g_interrupts{0};
void count_interrupt(int) { g_interrupts.fetch_add(1); }

TEST(SocketGatherTest, SlowReaderAndInterruptedWritesDeliverOneIntactFrame) {
  Pair p = local_pair();
  const int small = 4096;
  ASSERT_EQ(::setsockopt(p.sender.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small),
            0);
  // A signal that lands while sendmsg() blocks on the full buffer makes it
  // return what it has sent so far (no SA_RESTART): a partial write the
  // gather loop must resume mid-part, or an EINTR it must retry.
  struct sigaction act{};
  struct sigaction old{};
  act.sa_handler = count_interrupt;
  sigemptyset(&act.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &act, &old), 0);

  const Bytes data = testing::random_bytes(384u << 10, 7101);
  const std::vector<ByteView> parts = cut(data, {1, 4095, 70000, 333, 9000});
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    try {
      p.sender.send_frame_gather(parts);
    } catch (const SocketError&) {
      // The reader gave up on a sender that wrote past the frame (below).
    }
    sent.store(true);
  });
  std::thread interrupter([&, target = sender.native_handle()] {
    while (!sent.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  // Read the frame back slowly, in small pieces.
  const std::optional<std::uint32_t> len = p.receiver.recv_header();
  ASSERT_TRUE(len.has_value());
  ASSERT_EQ(*len, data.size());
  Bytes got(*len);
  for (std::size_t off = 0; off < got.size(); off += 2048) {
    const std::size_t n = std::min<std::size_t>(2048, got.size() - off);
    p.receiver.recv_payload(MutableByteView(got).subspan(off, n));
    if (off % (32u << 10) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // A sender that wrote more than the frame blocks on the full buffer:
  // give it time to finish, then close the reader to unblock it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sent.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished = sent.load();
  EXPECT_TRUE(finished) << "sender still writing after the whole frame";
  if (!finished) p.receiver.close();
  interrupter.join();  // first: it signals the sender's handle
  sender.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
  EXPECT_EQ(got, data);
  EXPECT_GT(g_interrupts.load(), 0);
  if (finished) {
    EXPECT_TRUE(wire_is_empty(p.receiver));
  }
}

TEST(SocketGatherTest, MorePartsThanIovMaxFormOneFrame) {
  Pair p = local_pair();
  const Bytes data = testing::random_bytes(3 * IOV_MAX + 7, 7102);
  const std::vector<ByteView> parts = cut(data, {1});
  ASSERT_GT(parts.size(), static_cast<std::size_t>(IOV_MAX));
  p.sender.send_frame_gather(parts);
  const std::optional<Bytes> got = p.receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
  EXPECT_TRUE(wire_is_empty(p.receiver));
}

TEST(SocketGatherTest, EmptyPartsAreSkipped) {
  Pair p = local_pair();
  const Bytes ab{'a', 'b'};
  const Bytes cde{'c', 'd', 'e'};
  const std::vector<ByteView> parts{ByteView(), ByteView(ab), ByteView(),
                                    ByteView(), ByteView(cde), ByteView()};
  p.sender.send_frame_gather(parts);
  const std::optional<Bytes> got = p.receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (Bytes{'a', 'b', 'c', 'd', 'e'}));

  // Nothing but empty parts is an empty payload: rejected, nothing sent.
  const std::vector<ByteView> none{ByteView(), ByteView()};
  EXPECT_THROW(p.sender.send_frame_gather(none), WireError);
  EXPECT_TRUE(wire_is_empty(p.receiver));
}

TEST(SocketGatherTest, OversizedTotalIsRejectedBeforeAnyByte) {
  Pair p = local_pair();
  // 65 views of one 1 MiB buffer: no part is large, the total is over
  // kMaxFramePayload.
  const Bytes mib(1u << 20, 0x5a);
  const std::vector<ByteView> parts((kMaxFramePayload >> 20) + 1,
                                    ByteView(mib));
  EXPECT_THROW(p.sender.send_frame_gather(parts), WireError);
  EXPECT_TRUE(wire_is_empty(p.receiver));

  // The connection is still in frame sync.
  const Bytes small{1, 2, 3};
  const std::vector<ByteView> ok{ByteView(small)};
  p.sender.send_frame_gather(ok);
  const std::optional<Bytes> got = p.receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, small);
}

}  // namespace
}  // namespace defrag::service
