// Authenticated replica mesh over real loopback TCP: handshake, both-way
// delivery, pre-connection backlog, oversize-frame accounting, reconnect
// with backoff, rejection of unauthenticated peers, and small-frame bursts
// from the accepting end.
#include "net/mesh.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>

#include "net/loop.hpp"

namespace sdns::net {
namespace {

using util::Bytes;

/// Grab a free loopback port from the kernel (bind :0, read it back).
std::uint16_t free_port() {
  const int fd = tcp_listen(SockAddr::parse("127.0.0.1:0"));
  const std::uint16_t port = local_addr(fd).port;
  ::close(fd);
  return port;
}

struct TestMesh {
  std::map<unsigned, std::vector<Bytes>> received;
  /// Runs after each message is recorded (may send).
  std::function<void(unsigned from)> on_receive;
  std::unique_ptr<Mesh> mesh;

  TestMesh(EventLoop& loop, unsigned self, const std::vector<SockAddr>& peers,
           const Bytes& secret, std::uint64_t seed, obs::Registry* metrics = nullptr,
           std::size_t write_cap = Mesh::Options{}.write_cap) {
    Mesh::Options opt;
    opt.self = self;
    opt.peers = peers;
    opt.mesh_secret = secret;
    opt.reconnect_min = 0.05;
    opt.reconnect_max = 0.2;
    opt.metrics = metrics;
    opt.write_cap = write_cap;
    mesh = std::make_unique<Mesh>(
        loop, opt,
        [this](unsigned from, Bytes msg) {
          received[from].push_back(std::move(msg));
          if (on_receive) on_receive(from);
        },
        util::Rng(seed));
    mesh->start();
  }
};

/// Drive the loop until `done` returns true or `timeout` elapses.
void drive(EventLoop& loop, const std::function<bool()>& done,
           double timeout = 5.0) {
  const double deadline = loop.now() + timeout;
  std::function<void()> poll = [&] {
    if (done() || loop.now() > deadline) {
      loop.stop();
      return;
    }
    loop.add_timer(0.01, poll);
  };
  loop.add_timer(0.0, poll);
  loop.run();
}

TEST(Mesh, TwoReplicasExchangeBothWays) {
  EventLoop loop;
  const Bytes secret = util::to_bytes("mesh secret");
  std::vector<SockAddr> peers = {SockAddr::parse("127.0.0.1:0"),
                                 SockAddr::parse("127.0.0.1:0")};
  peers[0].port = free_port();
  peers[1].port = free_port();
  TestMesh a(loop, 0, peers, secret, 1);
  TestMesh b(loop, 1, peers, secret, 2);
  a.mesh->send(1, util::to_bytes("zero to one"));
  b.mesh->send(0, util::to_bytes("one to zero"));
  drive(loop, [&] { return !a.received[1].empty() && !b.received[0].empty(); });
  ASSERT_EQ(b.received[0].size(), 1u);
  EXPECT_EQ(b.received[0][0], util::to_bytes("zero to one"));
  ASSERT_EQ(a.received[1].size(), 1u);
  EXPECT_EQ(a.received[1][0], util::to_bytes("one to zero"));
  EXPECT_TRUE(a.mesh->connected(1));
  EXPECT_TRUE(b.mesh->connected(0));
}

TEST(Mesh, BacklogSentBeforeConnectIsDeliveredInOrder) {
  EventLoop loop;
  const Bytes secret = util::to_bytes("mesh secret");
  std::vector<SockAddr> peers = {SockAddr::parse("127.0.0.1:0"),
                                 SockAddr::parse("127.0.0.1:0")};
  peers[0].port = free_port();
  peers[1].port = free_port();
  TestMesh a(loop, 0, peers, secret, 1);
  // Queue before the peer even exists.
  for (int i = 0; i < 5; ++i) {
    a.mesh->send(1, util::to_bytes("m" + std::to_string(i)));
  }
  TestMesh b(loop, 1, peers, secret, 2);
  drive(loop, [&] { return b.received[0].size() >= 5; });
  ASSERT_EQ(b.received[0].size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.received[0][static_cast<std::size_t>(i)],
              util::to_bytes("m" + std::to_string(i)));
  }
}

TEST(Mesh, OversizeMessageIsCountedApartFromFairLossyDrops) {
  // A frame larger than the write cap can never be sent, so it must show up
  // under mesh.drops.oversize — on the backlog path before the link is up
  // and on the established path after — and never as a fair-lossy drop.
  EventLoop loop;
  const Bytes secret = util::to_bytes("mesh secret");
  std::vector<SockAddr> peers = {SockAddr::parse("127.0.0.1:0"),
                                 SockAddr::parse("127.0.0.1:0")};
  peers[0].port = free_port();
  peers[1].port = free_port();
  constexpr std::size_t kCap = 4096;
  obs::Registry metrics;
  TestMesh a(loop, 0, peers, secret, 1, &metrics, kCap);
  a.mesh->send(1, Bytes(kCap, 0xAB));  // no peer yet: the backlog path
  a.mesh->send(1, util::to_bytes("small"));
  TestMesh b(loop, 1, peers, secret, 2);
  drive(loop, [&] { return !b.received[0].empty(); });
  ASSERT_TRUE(a.mesh->connected(1));
  a.mesh->send(1, Bytes(kCap, 0xCD));  // the established path
  a.mesh->send(1, util::to_bytes("after"));
  drive(loop, [&] { return b.received[0].size() >= 2; });
  ASSERT_EQ(b.received[0].size(), 2u);
  EXPECT_EQ(b.received[0][0], util::to_bytes("small"));
  EXPECT_EQ(b.received[0][1], util::to_bytes("after"));
  EXPECT_EQ(metrics.counter("mesh.drops.oversize").value(), 2u);
  EXPECT_EQ(metrics.counter("mesh.drops.fair_lossy").value(), 0u);
}

TEST(Mesh, ReconnectsAfterPeerRestart) {
  EventLoop loop;
  const Bytes secret = util::to_bytes("mesh secret");
  std::vector<SockAddr> peers = {SockAddr::parse("127.0.0.1:0"),
                                 SockAddr::parse("127.0.0.1:0")};
  peers[0].port = free_port();
  peers[1].port = free_port();
  TestMesh a(loop, 1, peers, secret, 1);  // higher id: the initiator to 0
  auto b = std::make_unique<TestMesh>(loop, 0, peers, secret, 2);
  a.mesh->send(0, util::to_bytes("first"));
  drive(loop, [&] { return !b->received[1].empty(); });
  ASSERT_EQ(b->received[1].size(), 1u);

  // "Crash" replica 0 and bring up a fresh instance on the same port.
  // Until `a` observes the close, connected(0) still reports the stale link
  // (a send there would be fair-lossy, as the paper's model allows), so wait
  // for the drop first and only then for the backoff to reestablish.
  const std::uint64_t reconnects_before = a.mesh->reconnects();
  b.reset();
  b = std::make_unique<TestMesh>(loop, 0, peers, secret, 3);
  drive(loop, [&] { return a.mesh->reconnects() > reconnects_before; }, 10.0);
  drive(loop, [&] { return a.mesh->connected(0); }, 10.0);
  ASSERT_TRUE(a.mesh->connected(0));
  a.mesh->send(0, util::to_bytes("second"));
  drive(loop, [&] { return !b->received[1].empty(); });
  ASSERT_EQ(b->received[1].size(), 1u);
  EXPECT_EQ(b->received[1][0], util::to_bytes("second"));
  EXPECT_GE(a.mesh->reconnects(), 1u);
}

TEST(Mesh, AcceptorSideBurstsDoNotWaitForDelayedAck) {
  // The lower id accepts every link. An abcast or signing round sends
  // several small frames back to back; with Nagle on the accepted stream
  // the second frame of each burst waits for the peer's delayed ACK
  // (~40 ms), so 50 rounds would take about two seconds.
  EventLoop loop;
  const Bytes secret = util::to_bytes("mesh secret");
  std::vector<SockAddr> peers = {SockAddr::parse("127.0.0.1:0"),
                                 SockAddr::parse("127.0.0.1:0")};
  peers[0].port = free_port();
  peers[1].port = free_port();
  TestMesh acceptor(loop, 0, peers, secret, 1);
  TestMesh initiator(loop, 1, peers, secret, 2);
  initiator.mesh->send(0, util::to_bytes("hello"));
  drive(loop, [&] { return !acceptor.received[1].empty(); });
  ASSERT_TRUE(acceptor.mesh->connected(1));

  constexpr int kRounds = 50;
  int answered = 0;
  const auto burst = [&] {
    acceptor.mesh->send(1, util::to_bytes("first"));
    acceptor.mesh->send(1, util::to_bytes("second"));
  };
  initiator.on_receive = [&](unsigned) {
    if (initiator.received[0].size() % 2 == 0) initiator.mesh->send(0, util::to_bytes("ack"));
  };
  acceptor.on_receive = [&](unsigned) {
    if (++answered < kRounds) burst();
  };
  const auto start = std::chrono::steady_clock::now();
  burst();
  drive(loop, [&] { return answered >= kRounds; }, 10.0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_EQ(answered, kRounds);
  EXPECT_LT(elapsed, 0.5) << kRounds << " rounds took " << elapsed << " s";
}

TEST(Mesh, RejectsPeerWithWrongSecret) {
  EventLoop loop;
  std::vector<SockAddr> peers = {SockAddr::parse("127.0.0.1:0"),
                                 SockAddr::parse("127.0.0.1:0")};
  peers[0].port = free_port();
  peers[1].port = free_port();
  TestMesh good(loop, 0, peers, util::to_bytes("right secret"), 1);
  TestMesh evil(loop, 1, peers, util::to_bytes("wrong secret"), 2);
  evil.mesh->send(0, util::to_bytes("let me in"));
  // Give the handshake ample time to (fail to) complete.
  drive(loop, [&] { return false; }, 0.5);
  EXPECT_TRUE(good.received.empty() || good.received[1].empty());
  EXPECT_FALSE(good.mesh->connected(1));
}

}  // namespace
}  // namespace sdns::net
