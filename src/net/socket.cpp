#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sdns::net {

namespace {
[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}
}  // namespace

SockAddr SockAddr::parse(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos) throw NetError("address wants ip:port: " + text);
  const std::string host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  in_addr ia{};
  if (inet_pton(AF_INET, host.c_str(), &ia) != 1) {
    throw NetError("bad IPv4 address: " + host);
  }
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || *end != '\0' || port < 0 || port > 0xffff) {
    throw NetError("bad port: " + port_text);
  }
  SockAddr out;
  out.ip = ntohl(ia.s_addr);
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

sockaddr_in SockAddr::to_sockaddr() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ip);
  sa.sin_port = htons(port);
  return sa;
}

SockAddr SockAddr::from_sockaddr(const sockaddr_in& sa) {
  SockAddr out;
  out.ip = ntohl(sa.sin_addr.s_addr);
  out.port = ntohs(sa.sin_port);
  return out;
}

std::string SockAddr::to_string() const {
  in_addr ia{};
  ia.s_addr = htonl(ip);
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &ia, buf, sizeof buf);
  return std::string(buf) + ":" + std::to_string(port);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
  const int fdflags = fcntl(fd, F_GETFD, 0);
  if (fdflags < 0 || fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0) {
    throw_errno("fcntl(FD_CLOEXEC)");
  }
}

int udp_bind(const SockAddr& addr, bool reuseport) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw_errno("socket(UDP)");
  set_nonblocking(fd);
  // A deep receive queue rides out load-generator bursts between epoll
  // wakeups; best effort (the kernel clamps to rmem_max).
  int bytes = 1 << 21;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes);
  if (reuseport) {
    int one = 1;
    if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("setsockopt(SO_REUSEPORT)");
    }
  }
  const sockaddr_in sa = addr.to_sockaddr();
  if (bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind(" + addr.to_string() + ")");
  }
  return fd;
}

int tcp_listen(const SockAddr& addr, bool reuseport) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(TCP)");
  set_nonblocking(fd);
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  const sockaddr_in sa = addr.to_sockaddr();
  if (bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0 ||
      listen(fd, 128) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen(" + addr.to_string() + ")");
  }
  return fd;
}

int tcp_connect(const SockAddr& addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(TCP)");
  set_nonblocking(fd);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const sockaddr_in sa = addr.to_sockaddr();
  for (;;) {
    if (connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0) break;
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) break;  // completion is observed via epoll
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + addr.to_string() + ")");
  }
  return fd;
}

ssize_t retry_send(int fd, const void* buf, std::size_t len, int flags) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t retry_recv(int fd, void* buf, std::size_t len, int flags) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t retry_sendto(int fd, const void* buf, std::size_t len, int flags,
                     const sockaddr* addr, socklen_t addr_len) {
  for (;;) {
    const ssize_t n = ::sendto(fd, buf, len, flags, addr, addr_len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t retry_recvfrom(int fd, void* buf, std::size_t len, int flags,
                       sockaddr* addr, socklen_t* addr_len) {
  for (;;) {
    const ssize_t n = ::recvfrom(fd, buf, len, flags, addr, addr_len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

int tcp_accept(int listen_fd) {
  int fd;
  do {
    fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

int retry_recvmmsg(int fd, mmsghdr* msgs, unsigned vlen, int flags) {
  for (;;) {
    const int n = ::recvmmsg(fd, msgs, vlen, flags, nullptr);
    if (n >= 0 || errno != EINTR) return n;
  }
}

int retry_sendmmsg(int fd, mmsghdr* msgs, unsigned vlen, int flags) {
  for (;;) {
    const int n = ::sendmmsg(fd, msgs, vlen, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

int socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return errno;
  return err;
}

SockAddr local_addr(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    throw_errno("getsockname");
  }
  return SockAddr::from_sockaddr(sa);
}

}  // namespace sdns::net
