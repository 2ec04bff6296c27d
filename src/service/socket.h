// AF_UNIX stream sockets carrying length-prefixed frames (see wire.h).
//
// Two small RAII types:
//  - Conn: a connected socket. send_frame() writes `u32 len | payload`;
//    send_frame_gather() writes the same frame with the payload gathered
//    from several caller buffers by sendmsg(), copying none of them;
//    recv_frame() reads one frame or reports clean EOF; recv_header() +
//    recv_payload() read one into a buffer the caller supplies. Frame-level
//    malformations (oversized length, EOF mid-frame) throw WireError;
//    syscall failures throw SocketError.
//  - Listener: a bound+listening socket that owns its filesystem path
//    (unlinked on destruction). accept_or_stop() poll()s the listen fd
//    together with a caller-supplied stop fd (the server's self-pipe), so
//    a signal handler can break the accept loop with one write().
//
// Local sockets only: defrag-serve is a same-host daemon, authentication
// is filesystem permissions on the socket path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "common/bytes.h"

namespace defrag::service {

/// Socket syscall failure (connect/bind/read/write). Carries errno text.
class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One connected stream socket speaking frames. Move-only; closes on
/// destruction.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() noexcept;

  /// Frame and send one payload. Throws SocketError when the peer is gone,
  /// WireError when the payload exceeds kMaxFramePayload.
  void send_frame(ByteView payload);

  /// Frame and send the concatenation of `parts` as one payload, written
  /// straight from the parts' memory (sendmsg, any number of parts, partial
  /// writes resumed). Empty parts are skipped. Throws like send_frame(); a
  /// payload that is empty or over kMaxFramePayload is rejected before any
  /// byte is written, and so is an armed "service.send_frame" failpoint.
  void send_frame_gather(std::span<const ByteView> parts);

  /// Receive one frame's payload. Returns nullopt on clean EOF (peer
  /// closed between frames); throws WireError on EOF mid-frame, a zero
  /// length, or a length over kMaxFramePayload; SocketError on errno.
  std::optional<Bytes> recv_frame();

  /// recv_frame() in two halves, for a caller that supplies the payload's
  /// buffer. recv_header() reads one frame's length prefix and returns the
  /// payload length, checked against kMaxFramePayload before the caller
  /// can size anything by it, or nullopt on clean EOF; it throws like
  /// recv_frame(). The caller then reads exactly that many bytes, in one
  /// or more recv_payload() calls, before the next recv_header().
  std::optional<std::uint32_t> recv_header();
  /// Read the next out.size() payload bytes. Throws WireError on EOF,
  /// SocketError on errno.
  void recv_payload(MutableByteView out);

  int fd() const { return fd_; }
  void close();

 private:
  /// Reads exactly len bytes. Returns false on EOF before the first byte
  /// (only legal when eof_ok); throws WireError on EOF after it.
  bool read_all(void* data, std::size_t len, bool eof_ok);

  int fd_ = -1;
};

/// Connect to a defrag-serve socket. Throws SocketError.
Conn connect_unix(const std::string& path);

/// Bound + listening AF_UNIX socket owning its path.
class Listener {
 public:
  /// Binds and listens; removes a stale socket file first. Throws
  /// SocketError (path too long for sockaddr_un, bind/listen failure).
  explicit Listener(const std::string& path);
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener() noexcept;

  /// Block until a connection arrives or `stop_fd` becomes readable.
  /// Returns the accepted fd, or -1 when stopped. Throws SocketError on
  /// poll/accept failure (EINTR is retried).
  int accept_or_stop(int stop_fd);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace defrag::service
