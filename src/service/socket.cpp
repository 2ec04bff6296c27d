#include "service/socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "service/wire.h"

namespace defrag::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

}  // namespace

Conn::Conn(Conn&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Conn::~Conn() noexcept { close(); }

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Conn::read_all(void* data, std::size_t len, bool eof_ok) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Conn::send_frame(ByteView payload) {
  send_frame_gather(std::span<const ByteView>(&payload, 1));
}

void Conn::send_frame_gather(std::span<const ByteView> parts) {
  // Before the header write: an injected fault must never leave a partial
  // frame on the wire (the peer would misparse the next frame's header).
  DEFRAG_FAILPOINT("service.send_frame");
  std::uint64_t total = 0;
  for (const ByteView part : parts) total += part.size();
  if (total == 0 || total > kMaxFramePayload) {
    throw WireError("frame payload size out of range");
  }
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(total);
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  std::vector<iovec> iov;
  iov.reserve(parts.size() + 1);
  iov.push_back(iovec{header, sizeof header});
  for (const ByteView part : parts) {
    if (part.empty()) continue;
    // sendmsg() only reads through iov_base; the cast drops no real const.
    iov.push_back(iovec{const_cast<std::uint8_t*>(part.data()), part.size()});
  }
  std::size_t first = 0;  // iov[first] is the first part not fully sent
  while (first < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = std::min<std::size_t>(iov.size() - first, IOV_MAX);
    // MSG_NOSIGNAL: a vanished peer is a SocketError, not a SIGPIPE death.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("sendmsg");
    }
    // Skip what the kernel took; a partial write resumes mid-part.
    auto sent = static_cast<std::size_t>(n);
    while (first < iov.size() && sent >= iov[first].iov_len) {
      sent -= iov[first].iov_len;
      ++first;
    }
    if (sent > 0) {
      iov[first].iov_base =
          static_cast<std::uint8_t*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
}

std::optional<Bytes> Conn::recv_frame() {
  const std::optional<std::uint32_t> len = recv_header();
  if (!len.has_value()) return std::nullopt;
  Bytes payload(*len);
  recv_payload(payload);
  return payload;
}

std::optional<std::uint32_t> Conn::recv_header() {
  DEFRAG_FAILPOINT("service.recv_frame");
  std::uint8_t header[4];
  if (!read_all(header, sizeof header, /*eof_ok=*/true)) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  // The cap check MUST precede any allocation the length sizes: a hostile
  // header claiming kMaxFramePayload+1 is rejected having read only 4
  // bytes (tests/service/test_socket_hostile.cpp pins this order).
  if (len == 0) throw WireError("zero-length frame");
  if (len > kMaxFramePayload) throw WireError("frame length exceeds cap");
  return len;
}

void Conn::recv_payload(MutableByteView out) {
  read_all(out.data(), out.size(), /*eof_ok=*/false);
}

Conn connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw SocketError("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Conn conn(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    throw_errno("connect " + path);
  }
  return conn;
}

Listener::Listener(const std::string& path) : path_(path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof addr.sun_path) {
    throw SocketError("socket path too long: " + path_);
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  ::unlink(path_.c_str());  // stale socket from a crashed predecessor
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + path_);
  }
  if (::listen(fd_, SOMAXCONN) < 0) {
    const int saved = errno;
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
    errno = saved;
    throw_errno("listen " + path_);
  }
}

Listener::~Listener() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

int Listener::accept_or_stop(int stop_fd) {
  for (;;) {
    pollfd fds[2];
    fds[0] = pollfd{fd_, POLLIN, 0};
    fds[1] = pollfd{stop_fd, POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (fds[1].revents != 0) return -1;  // stop byte beats pending accepts
    if (fds[0].revents != 0) {
      const int conn_fd = ::accept(fd_, nullptr, nullptr);
      if (conn_fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw_errno("accept");
      }
      return conn_fd;
    }
  }
}

}  // namespace defrag::service
