// DnsFrontend over real loopback sockets: UDP + EDNS truncation behavior
// and the TCP framing edge cases (split length prefix, pipelining,
// oversized-length rejection, mid-message close, idle timeout).
//
// The loop runs on the test's main thread; a client thread speaks blocking
// sockets against the frontend and stops the loop when done.
#include "net/frontend.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "dns/edns.hpp"
#include "dns/server.hpp"
#include "dns/tsig.hpp"
#include "dns/xfr.hpp"
#include "net/loop.hpp"
#include "net/resolver.hpp"

namespace sdns::net {
namespace {

using util::Bytes;

constexpr double kClientTimeout = 5.0;

void set_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(kClientTimeout);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// Frontend + loop + a request handler that answers from a tiny in-memory
/// "zone": one A record, with an adjustable amount of answer padding so
/// tests can force truncation. The handler plays the replica: it counts its
/// invocations (cache hits never reach it) and stamps answers with the
/// test-owned zone-generation counter, exactly like ReplicaRuntime does.
class FrontendTest : public ::testing::Test {
 protected:
  void start(DnsFrontend::Options opt, int answer_count = 1) {
    opt.listen = SockAddr::parse("127.0.0.1:0");
    opt.generation = &gen_;
    frontend_ = std::make_unique<DnsFrontend>(
        loop_, opt, [this, answer_count](ClientId client, util::BytesView wire) {
          ++handler_calls_;
          dns::Message query = dns::Message::decode(wire);
          dns::Message response = dns::Message::make_response(query);
          response.aa = true;
          for (int i = 0; i < answer_count; ++i) {
            dns::ResourceRecord rr;
            rr.name = dns::Name::parse("h" + std::to_string(i) + ".example.com.");
            rr.type = dns::RRType::kA;
            rr.ttl = ttl_;
            rr.rdata = dns::ARdata::from_text("192.0.2.7").encode();
            response.answers.push_back(rr);
          }
          frontend_->respond(client, response.encode(),
                             gen_.load(std::memory_order_relaxed));
        });
    frontend_->start();
    addr_ = frontend_->bound_addr();
  }

  /// Like start(), but with a test-supplied request handler standing in
  /// for the replica (for drop / reorder scenarios).
  void start_custom(DnsFrontend::Options opt, DnsFrontend::RequestFn handler) {
    opt.listen = SockAddr::parse("127.0.0.1:0");
    opt.generation = &gen_;
    frontend_ = std::make_unique<DnsFrontend>(loop_, opt, std::move(handler));
    frontend_->start();
    addr_ = frontend_->bound_addr();
  }

  /// A response to `query` whose answer A record carries the query's own
  /// name, so a cache-poisoned splice (question X, answer for Y) is
  /// detectable by the client.
  Bytes response_echoing_name(const dns::Message& query) {
    dns::Message response = dns::Message::make_response(query);
    response.aa = true;
    dns::ResourceRecord rr;
    rr.name = query.questions.at(0).name;
    rr.type = dns::RRType::kA;
    rr.ttl = ttl_;
    rr.rdata = dns::ARdata::from_text("192.0.2.7").encode();
    response.answers.push_back(rr);
    return response.encode();
  }

  /// Run the loop while `client` executes on its own thread.
  void run_with_client(const std::function<void()>& client) {
    std::thread t([&] {
      client();
      loop_.stop();
    });
    loop_.run();
    t.join();
  }

  int tcp_connect_blocking() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa), 0);
    return fd;
  }

  /// Read one length-prefixed DNS message from a blocking TCP socket.
  static std::optional<Bytes> read_tcp_message(int fd) {
    std::uint8_t prefix[2];
    std::size_t got = 0;
    while (got < 2) {
      const ssize_t n = ::recv(fd, prefix + got, 2 - got, 0);
      if (n <= 0) return std::nullopt;
      got += static_cast<std::size_t>(n);
    }
    const std::size_t len = static_cast<std::size_t>(prefix[0]) << 8 | prefix[1];
    Bytes msg(len);
    got = 0;
    while (got < len) {
      const ssize_t n = ::recv(fd, msg.data() + got, len - got, 0);
      if (n <= 0) return std::nullopt;
      got += static_cast<std::size_t>(n);
    }
    return msg;
  }

  static Bytes query_wire(std::uint16_t id, std::uint16_t edns_payload = 0,
                          const std::string& name = "www.example.com.") {
    dns::Message q =
        dns::Message::make_query(id, dns::Name::parse(name), dns::RRType::kA);
    if (edns_payload) {
      dns::EdnsInfo info;
      info.udp_payload = edns_payload;
      dns::set_edns(q, info);
    }
    return q.encode();
  }

  /// Send one UDP query and block for the response (empty on timeout).
  Bytes udp_roundtrip(int fd, const Bytes& q) {
    const sockaddr_in sa = addr_.to_sockaddr();
    EXPECT_GT(::sendto(fd, q.data(), q.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    std::uint8_t buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return {};
    return Bytes(buf, buf + n);
  }

  /// The request handler playing ReplicaRuntime's transfer path: every
  /// request goes through answer_xfr + respond_xfr against `server`.
  DnsFrontend::RequestFn xfr_handler(
      std::shared_ptr<dns::AuthoritativeServer> server) {
    return [this, server](ClientId client, util::BytesView wire) {
      const dns::Message q = dns::Message::decode(wire);
      std::vector<dns::Message> envelopes = server->answer_xfr(q, 60000);
      std::vector<Bytes> wires;
      wires.reserve(envelopes.size());
      for (const dns::Message& m : envelopes) wires.push_back(m.encode());
      frontend_->respond_xfr(client, wires);
    };
  }

  EventLoop loop_;
  std::unique_ptr<DnsFrontend> frontend_;
  SockAddr addr_;
  /// Stands in for core::ReplicaNode::zone_generation().
  std::atomic<std::uint64_t> gen_{1};
  /// Incremented on the loop thread; read after loop_.run() returns.
  int handler_calls_ = 0;
  std::uint32_t ttl_ = 300;
};

TEST_F(FrontendTest, UdpQueryGetsResponse) {
  start({});
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    const Bytes q = query_wire(0x0101);
    ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    const dns::Message r = dns::Message::decode({buf, static_cast<std::size_t>(n)});
    EXPECT_EQ(r.id, 0x0101);
    EXPECT_TRUE(r.qr);
    EXPECT_FALSE(r.tc);
    EXPECT_EQ(r.answers.size(), 1u);
    ::close(fd);
  });
  EXPECT_EQ(frontend_->udp_queries(), 1u);
}

TEST_F(FrontendTest, OversizedUdpResponseTruncatesWithoutEdns) {
  start({}, /*answer_count=*/40);  // well past 512 bytes
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    const Bytes q = query_wire(0x0202);
    ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    EXPECT_LE(static_cast<std::size_t>(n), dns::kClassicUdpLimit);
    const dns::Message r = dns::Message::decode({buf, static_cast<std::size_t>(n)});
    EXPECT_TRUE(r.tc);  // client must retry over TCP
    EXPECT_TRUE(r.answers.empty());
    ::close(fd);
  });
  EXPECT_EQ(frontend_->truncated(), 1u);
}

TEST_F(FrontendTest, EdnsPayloadLiftsTruncationLimit) {
  start({}, /*answer_count=*/40);
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    const Bytes q = query_wire(0x0303, /*edns_payload=*/4096);
    ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    std::uint8_t buf[8192];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    EXPECT_GT(static_cast<std::size_t>(n), dns::kClassicUdpLimit);
    const dns::Message r = dns::Message::decode({buf, static_cast<std::size_t>(n)});
    EXPECT_FALSE(r.tc);
    EXPECT_EQ(r.answers.size(), 40u);
    // The response carries our OPT so the client learns our receive size.
    EXPECT_TRUE(dns::find_edns(r).has_value());
    ::close(fd);
  });
  EXPECT_EQ(frontend_->truncated(), 0u);
}

TEST(ClientIdTest, TinyAdvertisedPayloadClampsTo512) {
  // RFC 6891 §6.2.5: requestor payload sizes below 512 are treated as 512.
  // Pre-fix, make_udp_client stored the advertised value verbatim, so a
  // malicious OPT of e.g. 100 bytes forced truncation of well-formed
  // sub-512-byte responses — this test fails against that code.
  const SockAddr addr = SockAddr::parse("127.0.0.1:5353");
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 100)), 512);
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 1)), 512);
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 511)), 512);
  // 0 is the "query had no OPT" sentinel and must survive unclamped.
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 0)), 0);
  // At and above the classic limit the advertised size is honored.
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 512)), 512);
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 1232)), 1232);
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 4096)), 4096);
}

TEST(ClientIdTest, ShardRoundTripsNextToPayloadAndAddress) {
  // The shard field routes asynchronously produced responses back to the
  // loop that registered the query's pending cache-store context; it must
  // coexist with every other field of the id.
  const SockAddr addr = SockAddr::parse("192.0.2.1:9999");
  for (unsigned shard : {0u, 1u, 7u, 15u}) {
    const ClientId id = make_udp_client(addr, 1232, /*dnssec_ok=*/true, shard);
    EXPECT_TRUE(client_is_udp(id));
    EXPECT_EQ(client_udp_shard(id), shard);
    EXPECT_EQ(client_udp_payload(id), 1232);
    EXPECT_TRUE(client_udp_do(id));
    EXPECT_EQ(client_udp_addr(id).to_string(), "192.0.2.1:9999");
  }
  // Payload granularity is 16 bytes, flooring — never above the advert.
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 1239)), 1232);
  EXPECT_EQ(client_udp_payload(make_udp_client(addr, 16383)), 16368);
}

TEST_F(FrontendTest, MaliciouslyTinyEdnsPayloadStillGets512) {
  // An attacker advertising a 100-byte OPT payload must not shrink the
  // response budget below the classic 512-byte limit: a ~300-byte answer
  // set comes back whole — no truncation at the tiny advertised size.
  start({}, /*answer_count=*/8);
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    const Bytes q = query_wire(0x0707, /*edns_payload=*/100);
    ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    EXPECT_GT(static_cast<std::size_t>(n), 100u);   // beyond the tiny advert
    EXPECT_LE(static_cast<std::size_t>(n), dns::kClassicUdpLimit);
    const dns::Message r = dns::Message::decode({buf, static_cast<std::size_t>(n)});
    EXPECT_FALSE(r.tc);
    EXPECT_EQ(r.answers.size(), 8u);
    ::close(fd);
  });
  EXPECT_EQ(frontend_->truncated(), 0u);
}

TEST_F(FrontendTest, MetricsRegistryCountsQueries) {
  obs::Registry reg;
  DnsFrontend::Options opt;
  opt.metrics = &reg;
  start(opt);
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    for (std::uint16_t id : {0x21, 0x22}) {
      const Bytes q = query_wire(id);
      ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                         reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
                0);
      std::uint8_t buf[4096];
      ASSERT_GT(::recv(fd, buf, sizeof buf, 0), 0);
    }
    ::close(fd);
  });
  EXPECT_EQ(reg.counter_value("net.udp.queries"), 2u);
  EXPECT_EQ(reg.counter_value("net.query.opcode.query"), 2u);
  EXPECT_EQ(reg.counter_value("net.rcode.noerror"), 2u);
  // Only the replica-path (miss) exchange is timed; the cache hit is not
  // observed — a flood of 0µs hit samples would pin every percentile of
  // the histogram to zero and hide the replica-path latency.
  EXPECT_EQ(reg.histogram("net.query.latency_us").count(), 1u);
  EXPECT_EQ(reg.counter_value("net.udp.send_errors"), 0u);
  EXPECT_GE(reg.counter_value("net.udp.recvmmsg_calls"), 1u);
  EXPECT_GE(reg.counter_value("net.udp.sendmmsg_calls"), 1u);
}

TEST_F(FrontendTest, CacheHitPreservesClientCasingAndId) {
  // RFC 1035 §2.3.3: case must be preserved in the echoed question. The
  // second query differs from the first only in 0x20 casing and message id;
  // it must be served from the packet cache (the handler never sees it),
  // yet come back with *its own* id and *its own* casing — the splice path,
  // not a verbatim replay of the stored packet.
  start({});
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const Bytes r1 = udp_roundtrip(fd, query_wire(0x1111));
    ASSERT_FALSE(r1.empty());
    const Bytes q2 = query_wire(0x2222, 0, "wWw.ExAmPlE.cOm.");
    const Bytes r2 = udp_roundtrip(fd, q2);
    ASSERT_FALSE(r2.empty());
    const dns::Message m2 = dns::Message::decode(r2);
    EXPECT_EQ(m2.id, 0x2222);
    ASSERT_EQ(m2.questions.size(), 1u);
    EXPECT_EQ(m2.questions[0].name.to_string(), "wWw.ExAmPlE.cOm.");
    EXPECT_EQ(m2.answers.size(), 1u);
    // The raw question bytes are the client's own, byte for byte.
    ASSERT_GE(r2.size(), 12 + q2.size() - 12);
    EXPECT_TRUE(std::equal(q2.begin() + 12, q2.end(), r2.begin() + 12));
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 1);
  EXPECT_EQ(frontend_->packet_cache().stats().hits, 1u);
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 1u);
}

TEST_F(FrontendTest, BurstOfQueriesIsBatchedAndEachResponseSpliced) {
  // Inject a burst of 64 cache-hit queries with one client-side sendmmsg —
  // they queue in the frontend socket's receive buffer, so the drain loop
  // must pull them kUdpBatch at a time and answer through the batched
  // sendmmsg flush. Every response must still carry its own client's id
  // and 0x20 casing (the splice path runs per datagram, batching must not
  // cross wires between slots).
  obs::Registry reg;
  DnsFrontend::Options opt;
  opt.metrics = &reg;
  start(opt);
  constexpr unsigned kBurst = 64;
  static_assert(kBurst > DnsFrontend::kUdpBatch);
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    // Warm the cache so the whole burst hits it.
    ASSERT_FALSE(udp_roundtrip(fd, query_wire(0x0f00)).empty());

    // Build 64 queries, each with a distinct id and a casing pattern
    // derived from it (bit j of i flips the case of the j-th letter).
    std::vector<Bytes> queries;
    for (unsigned i = 0; i < kBurst; ++i) {
      std::string name = "www.example.com.";
      for (std::size_t j = 0; j < name.size(); ++j) {
        if (std::isalpha(static_cast<unsigned char>(name[j])) &&
            (i >> (j % 6)) & 1) {
          name[j] = static_cast<char>(std::toupper(name[j]));
        }
      }
      queries.push_back(query_wire(static_cast<std::uint16_t>(0x1000 + i), 0,
                                   name));
    }
    std::vector<iovec> iovs(kBurst);
    std::vector<mmsghdr> msgs(kBurst);
    sockaddr_in dst = addr_.to_sockaddr();
    for (unsigned i = 0; i < kBurst; ++i) {
      iovs[i].iov_base = queries[i].data();
      iovs[i].iov_len = queries[i].size();
      msgs[i].msg_hdr.msg_name = &dst;
      msgs[i].msg_hdr.msg_namelen = sizeof dst;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    unsigned sent = 0;
    while (sent < kBurst) {
      const int n = retry_sendmmsg(fd, msgs.data() + sent, kBurst - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<unsigned>(n);
    }

    // Collect all 64 responses (any order) and check each against the
    // query wire its id names: same question bytes, its own id.
    unsigned got = 0;
    while (got < kBurst) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_GT(n, 0) << "timed out after " << got << " responses";
      ASSERT_GE(n, 12);
      const unsigned idx =
          ((static_cast<unsigned>(buf[0]) << 8 | buf[1]) - 0x1000u);
      ASSERT_LT(idx, kBurst);
      const Bytes& q = queries[idx];
      ASSERT_GE(static_cast<std::size_t>(n), q.size());
      EXPECT_TRUE(std::equal(q.begin(), q.begin() + 2, buf))
          << "response id mismatch for slot " << idx;
      EXPECT_TRUE(std::equal(q.begin() + 12, q.end(), buf + 12))
          << "question casing not the client's own for slot " << idx;
      ++got;
    }
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 1);  // the warm-up; the burst never left the cache
  EXPECT_EQ(frontend_->packet_cache().stats().hits, kBurst);
  EXPECT_EQ(reg.counter_value("net.udp.queries"), kBurst + 1);
  EXPECT_EQ(reg.counter_value("net.udp.send_errors"), 0u);
  // The burst was drained in multi-datagram batches, not one syscall per
  // packet (65 queries, so any value below the burst size proves batching).
  EXPECT_GE(reg.counter_value("net.udp.recvmmsg_calls"), 1u);
  EXPECT_LT(reg.counter_value("net.udp.recvmmsg_calls"), kBurst);
  EXPECT_GE(reg.counter_value("net.udp.sendmmsg_calls"), 1u);
  EXPECT_LT(reg.counter_value("net.udp.sendmmsg_calls"), kBurst);
}

TEST_F(FrontendTest, GenerationBumpInvalidatesCache) {
  // A zone mutation bumps the replica's generation counter; the very next
  // identical query must miss and return the *new* data, never a stale
  // cached answer.
  start({});
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    ASSERT_FALSE(udp_roundtrip(fd, query_wire(0x01)).empty());
    // Warm hit first, to prove the entry was live before the bump.
    ASSERT_FALSE(udp_roundtrip(fd, query_wire(0x02)).empty());
    // "Mutate the zone": new TTL, new generation.
    ttl_ = 999;
    gen_.fetch_add(1, std::memory_order_release);
    const Bytes r3 = udp_roundtrip(fd, query_wire(0x03));
    ASSERT_FALSE(r3.empty());
    EXPECT_EQ(dns::Message::decode(r3).answers.at(0).ttl, 999u);
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 2);  // queries 1 and 3; query 2 was a hit
  EXPECT_EQ(frontend_->packet_cache().stats().hits, 1u);
  EXPECT_GE(frontend_->packet_cache().stats().flushes, 1u);
}

TEST_F(FrontendTest, TsigSignedQueryBypassesCache) {
  // Signed transactions are per-client: their responses carry a MAC over
  // the exact exchange and must neither be stored nor served from cache.
  obs::Registry reg;
  DnsFrontend::Options opt;
  opt.metrics = &reg;
  start(opt);
  const dns::TsigKey key{"client-key", util::Bytes{1, 2, 3, 4}};
  auto signed_query = [&](std::uint16_t id) {
    dns::Message q = dns::Message::make_query(
        id, dns::Name::parse("www.example.com."), dns::RRType::kA);
    dns::tsig_sign(q, key, /*timestamp=*/42);
    return q.encode();
  };
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    ASSERT_FALSE(udp_roundtrip(fd, signed_query(0x0A)).empty());
    ASSERT_FALSE(udp_roundtrip(fd, signed_query(0x0B)).empty());
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 2);  // both reached the replica
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 0u);
  EXPECT_EQ(frontend_->packet_cache().stats().hits, 0u);
  EXPECT_EQ(reg.counter_value("net.cache.bypass.tsig"), 2u);
}

TEST_F(FrontendTest, UpdateOpcodeBypassesCache) {
  // RFC 2136 updates mutate state; only opcode QUERY is cacheable.
  obs::Registry reg;
  DnsFrontend::Options opt;
  opt.metrics = &reg;
  start(opt);
  auto update_wire = [](std::uint16_t id) {
    dns::Message m = dns::Message::make_query(
        id, dns::Name::parse("example.com."), dns::RRType::kSOA);
    m.opcode = dns::Opcode::kUpdate;
    return m.encode();
  };
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    ASSERT_FALSE(udp_roundtrip(fd, update_wire(0x31)).empty());
    ASSERT_FALSE(udp_roundtrip(fd, update_wire(0x32)).empty());
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 2);
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 0u);
  EXPECT_EQ(reg.counter_value("net.cache.bypass.opcode"), 2u);
}

TEST_F(FrontendTest, EdnsBucketsCacheSeparately) {
  // A response stored for a 4096-byte advertiser must not be replayed to a
  // plain-DNS client that can only take 512 bytes: the payload bucket is
  // part of the cache key.
  start({}, /*answer_count=*/40);  // ~1.5 KB response
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const Bytes big = udp_roundtrip(fd, query_wire(0x41, /*edns=*/4096));
    ASSERT_FALSE(big.empty());
    EXPECT_FALSE(dns::Message::decode(big).tc);
    // Same name, no OPT: different bucket, so a miss — and the response is
    // truncated to the classic limit, as it must be.
    const Bytes small = udp_roundtrip(fd, query_wire(0x42));
    ASSERT_FALSE(small.empty());
    EXPECT_LE(small.size(), dns::kClassicUdpLimit);
    EXPECT_TRUE(dns::Message::decode(small).tc);
    // Repeat of the 4096 form is a hit.
    ASSERT_FALSE(udp_roundtrip(fd, query_wire(0x43, /*edns=*/4096)).empty());
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 2);
  EXPECT_EQ(frontend_->packet_cache().stats().hits, 1u);
  // Only the 4096-bucket response fit its bucket; the truncated one is
  // never stored.
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 1u);
}

TEST_F(FrontendTest, CacheDisabledServesEveryQueryFromReplica) {
  DnsFrontend::Options opt;
  opt.enable_cache = false;
  start(opt);
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    ASSERT_FALSE(udp_roundtrip(fd, query_wire(0x51)).empty());
    ASSERT_FALSE(udp_roundtrip(fd, query_wire(0x52)).empty());
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 2);
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 0u);
}

TEST_F(FrontendTest, DroppedQueryCannotPoisonCacheViaReusedId) {
  // REVIEW scenario: a cacheable query the replica silently drops leaves an
  // orphaned pending-store entry under (source ip:port, DNS id). A later
  // query from the same socket reusing the id but asking a *different,
  // equal-length* name must not get its response filed under the orphan's
  // key — pre-fix, "okay."'s answer was cached under "drop."'s key and then
  // served to everyone asking "drop.".
  start_custom({}, [this](ClientId client, util::BytesView wire) {
    ++handler_calls_;
    dns::Message query = dns::Message::decode(wire);
    const std::string name = query.questions.at(0).name.to_string();
    if (name == "drop.example.com.") return;  // decode-failure stand-in
    frontend_->respond(client, response_echoing_name(query),
                       gen_.load(std::memory_order_relaxed));
  });
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    timeval tv{0, 400 * 1000};  // short: two of the queries go unanswered
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const sockaddr_in sa = addr_.to_sockaddr();
    // Orphan a pending entry: "drop." is swallowed by the handler.
    const Bytes q1 = query_wire(0x77, 0, "drop.example.com.");
    ASSERT_GT(::sendto(fd, q1.data(), q1.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    // Same socket, same id, different name of the same wire length.
    const Bytes r2 = udp_roundtrip(fd, query_wire(0x77, 0, "okay.example.com."));
    ASSERT_FALSE(r2.empty());
    const dns::Message m2 = dns::Message::decode(r2);
    EXPECT_EQ(m2.answers.at(0).name.to_string(), "okay.example.com.");
    // Re-ask "drop.": a poisoned cache would answer it with "okay."'s
    // record; correct behavior is a fresh handler call that drops it again.
    const Bytes r3 = udp_roundtrip(fd, query_wire(0x78, 0, "drop.example.com."));
    EXPECT_TRUE(r3.empty()) << "dropped name was served from the cache";
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 3);
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 1u);  // "okay." only
  EXPECT_EQ(frontend_->packet_cache().stats().hits, 0u);
}

TEST_F(FrontendTest, LateResponseForOverwrittenPendingIsNotStored) {
  // The reverse collision: the pending entry now belongs to the *newer*
  // query ("fast."), and the older query's response arrives late (the
  // abcast-disseminated read shape). Its question no longer matches the
  // registered key, so it must be rejected at store time — the old
  // length-only check let any equal-length qname through.
  std::optional<dns::Message> slow_query;
  ClientId slow_client = 0;
  start_custom({}, [&](ClientId client, util::BytesView wire) {
    ++handler_calls_;
    dns::Message query = dns::Message::decode(wire);
    const std::string name = query.questions.at(0).name.to_string();
    if (name == "slow.example.com." && !slow_query) {
      slow_query = std::move(query);  // answer it only when "fast." arrives
      slow_client = client;
      return;
    }
    if (slow_query) {
      frontend_->respond(slow_client, response_echoing_name(*slow_query),
                         gen_.load(std::memory_order_relaxed));
      slow_query.reset();
    }
    frontend_->respond(client, response_echoing_name(query),
                       gen_.load(std::memory_order_relaxed));
  });
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    const Bytes q1 = query_wire(0x11, 0, "slow.example.com.");
    ASSERT_GT(::sendto(fd, q1.data(), q1.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    // Same socket, same id: overwrites the pending slot with "fast."'s key.
    const Bytes q2 = query_wire(0x11, 0, "fast.example.com.");
    ASSERT_GT(::sendto(fd, q2.data(), q2.size(), 0,
                       reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
              0);
    // Both responses arrive; each must answer its own question.
    for (int i = 0; i < 2; ++i) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_GT(n, 0);
      const dns::Message r = dns::Message::decode({buf, static_cast<std::size_t>(n)});
      EXPECT_EQ(r.questions.at(0).name.to_string(),
                r.answers.at(0).name.to_string());
    }
    // Neither collided response was stored, so this repeat must reach the
    // handler and answer with its own name — a poisoned cache would have
    // served "slow."'s answer from the entry filed under "fast."'s key.
    const Bytes r3 = udp_roundtrip(fd, query_wire(0x12, 0, "fast.example.com."));
    ASSERT_FALSE(r3.empty());
    EXPECT_EQ(dns::Message::decode(r3).answers.at(0).name.to_string(),
              "fast.example.com.");
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 3);
  // The only store is the third query's own (uncollided) response.
  EXPECT_EQ(frontend_->packet_cache().stats().stores, 1u);
  EXPECT_EQ(frontend_->packet_cache().stats().hits, 0u);
}

TEST_F(FrontendTest, UnansweredPendingEntriesAgeOut) {
  // Queries whose responses never come (replica drops, spoofed sources)
  // must not pin pending-store slots forever — pre-fix the map filled to
  // its cap and response caching silently shut off for the shard.
  DnsFrontend::Options opt;
  opt.idle_timeout = 0.2;     // sweep period is idle_timeout / 4
  opt.pending_timeout = 0.1;
  start_custom(opt, [this](ClientId, util::BytesView) { ++handler_calls_; });
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    const sockaddr_in sa = addr_.to_sockaddr();
    for (std::uint16_t id : {0x61, 0x62, 0x63}) {
      const Bytes q = query_wire(id);
      ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                         reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
                0);
    }
    // Let several sweep periods elapse while the loop runs.
    ::usleep(600 * 1000);
    ::close(fd);
  });
  EXPECT_EQ(handler_calls_, 3);
  EXPECT_EQ(frontend_->pending_entries(), 0u);
}

TEST_F(FrontendTest, UnansweredRequestsDoNotStopLatencySampling) {
  // Requests nobody answers (replica-dropped, duplicate update retries)
  // leave their arrival times behind. Those must age out with the pending
  // entry — pre-fix they filled a separate 8192-entry map for good, and
  // net.query.latency_us never took another sample.
  obs::Registry reg;
  DnsFrontend::Options opt;
  opt.metrics = &reg;
  opt.idle_timeout = 0.2;  // sweep period is idle_timeout / 4
  opt.pending_timeout = 0.1;
  std::atomic<int> seen{0};
  start_custom(opt, [this, &seen](ClientId client, util::BytesView wire) {
    ++seen;
    const dns::Message query = dns::Message::decode(wire);
    if (query.questions.at(0).name.to_string() == "answered.example.com.") {
      frontend_->respond(client, response_echoing_name(query),
                         gen_.load(std::memory_order_relaxed));
    }
  });
  constexpr int kUnanswered = 8300;
  run_with_client([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    set_timeouts(fd);
    const sockaddr_in sa = addr_.to_sockaddr();
    for (int i = 0; i < kUnanswered; ++i) {
      const Bytes q = query_wire(static_cast<std::uint16_t>(i), 0, "dropped.example.com.");
      ASSERT_GT(::sendto(fd, q.data(), q.size(), 0,
                         reinterpret_cast<const sockaddr*>(&sa), sizeof sa),
                0);
      // Pace the burst so the socket's receive buffer never overflows.
      for (int waited = 0; i + 1 - seen.load() > 64 && waited < 5000; ++waited) {
        ::usleep(200);
      }
    }
    for (int waited = 0; seen.load() < kUnanswered && waited < 5000; ++waited) {
      ::usleep(1000);
    }
    ::usleep(300 * 1000);  // several sweeps past pending_timeout
    const Bytes r =
        udp_roundtrip(fd, query_wire(0x7777, 0, "answered.example.com."));
    EXPECT_FALSE(r.empty());
    ::close(fd);
  });
  EXPECT_EQ(seen.load(), kUnanswered + 1);
  EXPECT_EQ(reg.histogram("net.query.latency_us").count(), 1u);
}

TEST_F(FrontendTest, TcpQueryWithSplitLengthPrefix) {
  start({});
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    const Bytes framed = DnsTcpDecoder::frame(query_wire(0x0404));
    // Dribble the frame one byte at a time — prefix split included.
    for (std::size_t i = 0; i < framed.size(); ++i) {
      ASSERT_EQ(::send(fd, framed.data() + i, 1, MSG_NOSIGNAL), 1);
    }
    const auto msg = read_tcp_message(fd);
    ASSERT_TRUE(msg.has_value());
    const dns::Message r = dns::Message::decode(*msg);
    EXPECT_EQ(r.id, 0x0404);
    EXPECT_EQ(r.answers.size(), 1u);
    ::close(fd);
  });
  EXPECT_EQ(frontend_->tcp_queries(), 1u);
}

TEST_F(FrontendTest, TcpPipelinedQueries) {
  start({});
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    Bytes stream;
    for (std::uint16_t id : {0x11, 0x22, 0x33}) {
      const Bytes f = DnsTcpDecoder::frame(query_wire(id));
      stream.insert(stream.end(), f.begin(), f.end());
    }
    ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(stream.size()));
    for (std::uint16_t id : {0x11, 0x22, 0x33}) {
      const auto msg = read_tcp_message(fd);
      ASSERT_TRUE(msg.has_value());
      EXPECT_EQ(dns::Message::decode(*msg).id, id);
    }
    ::close(fd);
  });
  EXPECT_EQ(frontend_->tcp_queries(), 3u);
}

TEST_F(FrontendTest, TcpOversizedLengthDropsConnection) {
  DnsFrontend::Options opt;
  opt.max_tcp_message = 512;
  start(opt);
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    const std::uint8_t bogus[2] = {0x40, 0x00};  // advertises 16384 > 512
    ASSERT_EQ(::send(fd, bogus, 2, MSG_NOSIGNAL), 2);
    std::uint8_t buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);  // server closed
    ::close(fd);
  });
}

TEST_F(FrontendTest, TcpUndersizedLengthDropsConnection) {
  start({});
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    const std::uint8_t bogus[4] = {0x00, 0x03, 0xAA, 0xBB};  // 3 < header
    ASSERT_EQ(::send(fd, bogus, 4, MSG_NOSIGNAL), 4);
    std::uint8_t buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
    ::close(fd);
  });
}

TEST_F(FrontendTest, TcpMidMessageCloseIsHarmless) {
  start({});
  run_with_client([&] {
    // A client dies mid-message; the server must clean up and keep serving.
    const int dying = tcp_connect_blocking();
    const Bytes framed = DnsTcpDecoder::frame(query_wire(0x0505));
    ASSERT_EQ(::send(dying, framed.data(), framed.size() / 2, MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size() / 2));
    ::close(dying);

    const int fd = tcp_connect_blocking();
    const Bytes full = DnsTcpDecoder::frame(query_wire(0x0606));
    ASSERT_EQ(::send(fd, full.data(), full.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(full.size()));
    const auto msg = read_tcp_message(fd);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(dns::Message::decode(*msg).id, 0x0606);
    ::close(fd);
  });
  EXPECT_EQ(frontend_->tcp_queries(), 1u);  // the half message never counted
}

TEST_F(FrontendTest, IdleTcpConnectionIsClosed) {
  DnsFrontend::Options opt;
  opt.idle_timeout = 0.2;
  start(opt);
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    std::uint8_t buf[16];
    // No traffic: the sweep must close us within a few sweep periods.
    EXPECT_EQ(::recv(fd, buf, sizeof buf, 0), 0);
    ::close(fd);
  });
}

// ---- zone transfer streaming over the real TCP frontend ----

dns::Zone big_zone(std::size_t hosts) {
  dns::Zone z = dns::Zone::from_text(dns::Name::parse("big.example."), R"(
@  IN SOA ns.big.example. admin.big.example. 1 7200 1200 604800 600
@  IN NS  ns.big.example.
ns IN A   192.0.2.53
)");
  for (std::size_t i = 0; i < hosts; ++i) {
    dns::ResourceRecord rr;
    rr.name = z.origin().child("h" + std::to_string(i));
    rr.type = dns::RRType::kA;
    rr.ttl = 300;
    rr.rdata = dns::ARdata::from_text("10.0.0.1").encode();
    z.add_record(rr);
  }
  return z;
}

TEST_F(FrontendTest, AxfrOf100kRrsetZoneStreamsOverTcp) {
  // The regression this whole edge rides on: a zone whose AXFR is megabytes
  // must stream as multiple RFC 5936 envelopes, each under the 64 KiB TCP
  // length prefix — the old single-message answer_axfr could never leave the
  // building. Reassembled client-side with apply_xfr_response, byte-for-byte.
  auto server = std::make_shared<dns::AuthoritativeServer>(big_zone(100'000));
  DnsFrontend::Options opt;
  start_custom(opt, xfr_handler(server));
  StubResolver::Result res;
  run_with_client([&] {
    StubResolver::Options ropt;
    ropt.servers = {addr_};
    ropt.timeout = 20.0;
    StubResolver resolver(std::move(ropt));
    res = resolver.xfr(dns::Message::make_query(0x100, server->zone().origin(),
                                                dns::RRType::kAXFR));
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
  dns::Zone fresh(server->zone().origin());
  ASSERT_EQ(apply_xfr_response(fresh, res.response),
            dns::XfrOutcome::kReplacedAxfr);
  EXPECT_EQ(fresh.record_count(), server->zone().record_count());
  EXPECT_EQ(fresh.record_count(), 100'003u);
}

TEST_F(FrontendTest, SlowXfrReaderSurvivesIdleSweepAndQueryWriteCap) {
  // Satellite regression: a connection with queued transfer output is ACTIVE
  // (the peer is draining megabytes, not idling), so neither the idle sweep
  // nor the per-connection query write cap may kill it mid-transfer. Before
  // the xfr_max_inflight split, this client died twice over: the stream
  // exceeds write_cap at push time, and sleeping past idle_timeout got the
  // connection swept.
  auto server = std::make_shared<dns::AuthoritativeServer>(big_zone(20'000));
  DnsFrontend::Options opt;
  opt.idle_timeout = 0.2;
  opt.write_cap = 4096;  // far below the ~700 KiB stream
  start_custom(opt, xfr_handler(server));
  bool done = false;
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    const Bytes framed = DnsTcpDecoder::frame(
        dns::Message::make_query(0x200, server->zone().origin(),
                                 dns::RRType::kAXFR)
            .encode());
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
    // Sleep well past several sweep periods while the transfer backlog sits
    // queued server-side; then drain it all.
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    dns::XfrAssembler assembler;
    while (assembler.state() == dns::XfrAssembler::State::kContinue) {
      const auto msg = read_tcp_message(fd);
      ASSERT_TRUE(msg.has_value()) << "connection died mid-transfer";
      assembler.feed(dns::Message::decode(*msg));
    }
    ASSERT_EQ(assembler.state(), dns::XfrAssembler::State::kDone);
    dns::Zone fresh(server->zone().origin());
    ASSERT_EQ(apply_xfr_response(fresh, assembler.combined()),
              dns::XfrOutcome::kReplacedAxfr);
    done = fresh.record_count() == server->zone().record_count();
    ::close(fd);
  });
  EXPECT_TRUE(done);
}

TEST_F(FrontendTest, XfrBacklogBeyondInflightCapClosesConnection) {
  // The transfer exemption is not unbounded: a stream that would queue more
  // than xfr_max_inflight closes the connection instead of growing without
  // limit.
  auto server = std::make_shared<dns::AuthoritativeServer>(big_zone(20'000));
  DnsFrontend::Options opt;
  opt.xfr_max_inflight = 64 * 1024;  // the ~700 KiB stream cannot fit
  start_custom(opt, xfr_handler(server));
  run_with_client([&] {
    const int fd = tcp_connect_blocking();
    const Bytes framed = DnsTcpDecoder::frame(
        dns::Message::make_query(0x201, server->zone().origin(),
                                 dns::RRType::kAXFR)
            .encode());
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
    // Without draining, the push must overflow the cap and the server must
    // close — we observe EOF (possibly after a partial stream).
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_NE(n, -1) << "timed out waiting for the server to close";
      if (n == 0) break;
    }
    ::close(fd);
  });
}

}  // namespace
}  // namespace sdns::net
