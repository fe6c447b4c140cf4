// Wrapper-level tests for the batched-datagram syscalls: partial batches,
// EINTR retry mid-wait, and the zero-datagram (EAGAIN) wakeup the frontend's
// drain loop must treat as "queue empty", not as an error. Plus the options
// both ends of a TCP stream must carry.
#include "net/socket.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

namespace sdns::net {
namespace {

SockAddr loopback() {
  SockAddr a;
  a.ip = (127u << 24) | 1;  // 127.0.0.1
  a.port = 0;               // kernel-assigned
  return a;
}

/// A kUdpBatch-shaped slot pool, wired like the frontend's: one buffer, one
/// iovec, one mmsghdr per slot, msg_name pointing at a per-slot sockaddr.
struct MsgPool {
  explicit MsgPool(std::size_t slots, std::size_t buf_size = 2048)
      : bufs(slots, std::vector<std::uint8_t>(buf_size)),
        iovs(slots),
        msgs(slots),
        addrs(slots) {
    for (std::size_t i = 0; i < slots; ++i) {
      iovs[i].iov_base = bufs[i].data();
      iovs[i].iov_len = bufs[i].size();
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
  }
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<iovec> iovs;
  std::vector<mmsghdr> msgs;
  std::vector<sockaddr_in> addrs;
};

TEST(Mmsg, MovesAPartialBatchEndToEnd) {
  const int rx = udp_bind(loopback());
  const int tx = udp_bind(loopback());
  const SockAddr dst = local_addr(rx);

  // Stage 3 datagrams into a 32-slot pool: a partial batch, like any real
  // tick that doesn't fill kUdpBatch.
  constexpr unsigned kSlots = 32;
  constexpr unsigned kStaged = 3;
  MsgPool out(kSlots);
  for (unsigned i = 0; i < kStaged; ++i) {
    out.bufs[i] = {static_cast<std::uint8_t>('a' + i),
                   static_cast<std::uint8_t>(i)};
    out.iovs[i].iov_base = out.bufs[i].data();
    out.iovs[i].iov_len = out.bufs[i].size();
    out.addrs[i] = dst.to_sockaddr();
  }
  ASSERT_EQ(retry_sendmmsg(tx, out.msgs.data(), kStaged, 0),
            static_cast<int>(kStaged));

  pollfd pfd{rx, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 2000), 0);

  // One recvmmsg with the full window returns exactly the queued count —
  // the "partial batch" result the frontend's `got < kUdpBatch` early
  // break depends on.
  MsgPool in(kSlots);
  const int got = retry_recvmmsg(rx, in.msgs.data(), kSlots, 0);
  ASSERT_EQ(got, static_cast<int>(kStaged));
  const SockAddr src = local_addr(tx);
  for (unsigned i = 0; i < kStaged; ++i) {
    EXPECT_EQ(in.msgs[i].msg_len, 2u) << i;
    EXPECT_EQ(in.bufs[i][0], 'a' + i) << i;
    EXPECT_EQ(in.bufs[i][1], i) << i;
    // The kernel filled each slot's msg_name with the true source.
    const SockAddr from = SockAddr::from_sockaddr(in.addrs[i]);
    EXPECT_EQ(from.port, src.port) << i;
  }
  ::close(rx);
  ::close(tx);
}

TEST(Mmsg, OneBatchFansOutToDistinctDestinations) {
  // Per-slot msg_name means one sendmmsg can target different sockets —
  // the property the loadgen's per-slot destination patching relies on.
  const int rx1 = udp_bind(loopback());
  const int rx2 = udp_bind(loopback());
  const int tx = udp_bind(loopback());

  MsgPool out(2);
  out.bufs[0] = {0x11};
  out.bufs[1] = {0x22};
  for (unsigned i = 0; i < 2; ++i) {
    out.iovs[i].iov_base = out.bufs[i].data();
    out.iovs[i].iov_len = 1;
  }
  out.addrs[0] = local_addr(rx1).to_sockaddr();
  out.addrs[1] = local_addr(rx2).to_sockaddr();
  ASSERT_EQ(retry_sendmmsg(tx, out.msgs.data(), 2, 0), 2);

  for (int rx : {rx1, rx2}) {
    pollfd pfd{rx, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 2000), 0);
    MsgPool in(4);
    ASSERT_EQ(retry_recvmmsg(rx, in.msgs.data(), 4, 0), 1);
    EXPECT_EQ(in.bufs[0][0], rx == rx1 ? 0x11 : 0x22);
  }
  ::close(rx1);
  ::close(rx2);
  ::close(tx);
}

TEST(Mmsg, EmptyNonblockingSocketReportsEagainNotError) {
  // A spurious epoll wakeup finds no datagrams: the wrapper must surface
  // EAGAIN (the drain loop's normal exit), never spin or throw.
  const int rx = udp_bind(loopback());
  MsgPool in(8);
  errno = 0;
  const int got = retry_recvmmsg(rx, in.msgs.data(), 8, 0);
  EXPECT_EQ(got, -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
  ::close(rx);
}

TEST(Mmsg, RetriesRecvAfterEintr) {
  // A signal landing while recvmmsg waits (blocking socket, nothing queued
  // yet) makes the raw syscall fail with EINTR; the wrapper must retry and
  // then return the datagram that arrives afterwards. Uses a no-op
  // non-SA_RESTART handler so the interruption is actually observable.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // no SA_RESTART: recvmmsg returns EINTR
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  const int rx = ::socket(AF_INET, SOCK_DGRAM, 0);  // intentionally blocking
  ASSERT_GE(rx, 0);
  sockaddr_in bind_sa = loopback().to_sockaddr();
  ASSERT_EQ(::bind(rx, reinterpret_cast<sockaddr*>(&bind_sa), sizeof bind_sa),
            0);
  const SockAddr dst = local_addr(rx);

  const pthread_t receiver = pthread_self();
  std::thread poker([receiver, dst] {
    // First interrupt the blocked call, then satisfy it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pthread_kill(receiver, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const int tx = udp_bind(loopback());
    const std::uint8_t byte = 0x5a;
    const sockaddr_in to = dst.to_sockaddr();
    ::sendto(tx, &byte, 1, 0, reinterpret_cast<const sockaddr*>(&to),
             sizeof to);
    ::close(tx);
  });

  // MSG_WAITFORONE: block for the first datagram only — without it a
  // blocking recvmmsg keeps waiting until all `vlen` slots fill.
  MsgPool in(4);
  const int got = retry_recvmmsg(rx, in.msgs.data(), 4, MSG_WAITFORONE);
  poker.join();
  EXPECT_EQ(got, 1);
  ASSERT_GE(got, 1);
  EXPECT_EQ(in.msgs[0].msg_len, 1u);
  EXPECT_EQ(in.bufs[0][0], 0x5a);

  sigaction(SIGUSR1, &old, nullptr);
  ::close(rx);
}

int nodelay(int fd) {
  int value = 0;
  socklen_t len = sizeof value;
  EXPECT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(Socket, AcceptedAndConnectedStreamsDisableNagle) {
  // Mesh links and DNS TCP connections send small frames back to back; a
  // stream with Nagle on holds the second one for the peer's delayed ACK.
  const int listener = tcp_listen(loopback());
  const int client = tcp_connect(local_addr(listener));
  pollfd ready{listener, POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 5000), 1);
  const int server = tcp_accept(listener);
  ASSERT_GE(server, 0);
  EXPECT_EQ(nodelay(client), 1);
  EXPECT_EQ(nodelay(server), 1);
  EXPECT_NE(fcntl(server, F_GETFL) & O_NONBLOCK, 0);
  EXPECT_NE(fcntl(server, F_GETFD) & FD_CLOEXEC, 0);
  // A drained backlog is EAGAIN, the accept loops' exit.
  errno = 0;
  EXPECT_EQ(tcp_accept(listener), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
  ::close(server);
  ::close(client);
  ::close(listener);
}

}  // namespace
}  // namespace sdns::net
