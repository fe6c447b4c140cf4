// Thin POSIX socket helpers for the real transport: IPv4 address parsing,
// non-blocking socket creation, and EINTR-safe syscall wrappers. Everything
// returns plain fds owned by the caller (the event loop closes what it
// registers); errors throw NetError with errno context.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sdns::net {

class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// An IPv4 endpoint ("127.0.0.1:5300"). The reproduction deploys on
/// LAN/WAN IPv4 testbeds like the paper's; IPv6 would only change this file.
struct SockAddr {
  std::uint32_t ip = 0;  ///< host byte order
  std::uint16_t port = 0;

  /// Parse "a.b.c.d:port". Throws NetError on malformed input.
  static SockAddr parse(const std::string& text);

  sockaddr_in to_sockaddr() const;
  static SockAddr from_sockaddr(const sockaddr_in& sa);

  std::string to_string() const;

  friend bool operator==(const SockAddr& a, const SockAddr& b) {
    return a.ip == b.ip && a.port == b.port;
  }
};

/// Make an fd non-blocking (O_NONBLOCK) and close-on-exec.
void set_nonblocking(int fd);

/// Bound, non-blocking UDP socket. With `reuseport`, the socket joins (or
/// starts) an SO_REUSEPORT group on the address: the kernel hashes each
/// datagram's 4-tuple onto one member, which is how the sharded frontend
/// load-balances flows across per-core loops with no user-space locking.
int udp_bind(const SockAddr& addr, bool reuseport = false);

/// Listening, non-blocking TCP socket (SO_REUSEADDR, backlog 128). With
/// `reuseport`, incoming connections are likewise spread over the group.
int tcp_listen(const SockAddr& addr, bool reuseport = false);

/// Non-blocking TCP connect; returns the fd with the connection typically
/// still in progress (poll for writability, then check SO_ERROR).
int tcp_connect(const SockAddr& addr);

/// Accept one connection from a non-blocking listener: the stream comes back
/// non-blocking, close-on-exec and with Nagle off, like tcp_connect's. Both
/// ends must disable Nagle — protocol rounds send several small frames back
/// to back, and with Nagle on the accepting end the second one waits for
/// the peer's delayed ACK (~40 ms). Returns -1 with errno set (EAGAIN once
/// the backlog is drained); EINTR is retried.
int tcp_accept(int listen_fd);

/// The error accumulated on a socket (SO_ERROR), 0 if none.
int socket_error(int fd);

// EINTR-retrying syscall wrappers. A signal landing mid-call — the SIGUSR1
// trace dump, SIGCHLD from a forked test cluster, a profiler tick — must
// restart the call, not surface as a connection error. Each returns exactly
// what the underlying syscall would, with EINTR filtered out.
ssize_t retry_send(int fd, const void* buf, std::size_t len, int flags);
ssize_t retry_recv(int fd, void* buf, std::size_t len, int flags);
ssize_t retry_sendto(int fd, const void* buf, std::size_t len, int flags,
                     const sockaddr* addr, socklen_t addr_len);
ssize_t retry_recvfrom(int fd, void* buf, std::size_t len, int flags,
                       sockaddr* addr, socklen_t* addr_len);

// Kernel-batched UDP: one syscall moves up to `vlen` datagrams. Partial-count
// semantics are the syscall's own — recvmmsg returns however many datagrams
// were queued (fewer than vlen means the queue drained mid-batch), sendmmsg
// returns how many it accepted before the socket buffer filled (the caller
// continues from `msgs + n`). Both return -1/EAGAIN on an empty (resp. full)
// non-blocking socket; EINTR is retried like the wrappers above. recvmmsg's
// EINTR retry is only reached when nothing was received yet — the kernel
// reports a signal after a partial batch as a short count, not an error.
int retry_recvmmsg(int fd, mmsghdr* msgs, unsigned vlen, int flags);
int retry_sendmmsg(int fd, mmsghdr* msgs, unsigned vlen, int flags);

/// Local address of a bound socket (resolves port 0 after bind).
SockAddr local_addr(int fd);

}  // namespace sdns::net
