// EdgeRuntime over real loopback sockets, no forked processes (TSan-friendly).
//
// The test plays the trusted dealer (deals a (4,1) threshold zone key and
// signs the zone by assembling t+1 shares, exactly like generate_cluster)
// AND the core replica (a DnsFrontend + AuthoritativeServer serving
// AXFR/IXFR out of the signed zone). An EdgeRuntime is pointed at that
// stand-in core and must:
//   - bootstrap via AXFR, verify against the dealt zone key, and serve,
//   - fail closed (ServFail, no install) while unbootstrapped,
//   - ack a NOTIFY and pull the new serial via a genuine IXFR diff,
//   - fold a burst of NOTIFYs into a few refreshes,
//   - refuse a tampered zone and a zone signed under the wrong key,
//   - roll back a tampered IXFR and apply the next valid one.
// The bootstrap test runs with one and with two frontend shards, a further
// test pits the CH introspection of a real ReplicaRuntime against an edge's,
// and the last one round-trips that replica's observation through its
// stats gauges.
//
// The loop runs on the test's main thread; a client thread speaks blocking
// sockets against the edge and stops the loop when done (frontend_test's
// idiom).
#include "net/edge.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>

#include "dns/dnssec.hpp"
#include "dns/server.hpp"
#include "dns/xfr.hpp"
#include "net/cluster.hpp"
#include "net/notify.hpp"
#include "net/resolver.hpp"
#include "net/runtime.hpp"
#include "threshold/fixtures.hpp"
#include "threshold/shoup.hpp"

namespace sdns::net {
namespace {

using util::Bytes;
using util::BytesView;

constexpr unsigned kN = 4, kT = 1;
constexpr std::uint32_t kInception = 999'000;
constexpr std::uint32_t kExpiration = kInception + 365 * 24 * 3600;

const char* kZoneText =
    "@ 3600 IN SOA ns1.example.com. admin.example.com. 1 7200 3600 1209600 3600\n"
    "@ 3600 IN NS ns1.example.com.\n"
    "ns1 3600 IN A 10.0.0.1\n"
    "www 3600 IN A 10.0.0.80\n"
    "mail 3600 IN A 10.0.0.25\n";

class EdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sdns_edge_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    (void)std::system(cleanup.c_str());
  }

  /// Deal a (4,1) threshold zone key — deterministic in `seed`, so two
  /// different seeds yield two different (mutually unverifiable) keys.
  static threshold::DealtKey deal(std::uint64_t seed) {
    util::Rng rng(seed);
    return threshold::deal_with_primes(rng, kN, kT,
                                       threshold::fixtures::safe_prime_256_a(),
                                       threshold::fixtures::safe_prime_256_b());
  }

  /// A signing callback that assembles t+1 shares per signature — the
  /// private exponent never exists, same as generate_cluster's dealer.
  static dns::SignFn signer_for(const threshold::DealtKey& dealt,
                                std::uint64_t seed) {
    auto srng = std::make_shared<util::Rng>(seed, 0xF00DULL);
    return [&dealt, srng](BytesView data) {
      const bn::BigInt x = threshold::hash_to_element(dealt.pub, data);
      std::vector<threshold::SignatureShare> shares;
      for (unsigned i = 1; i <= kT + 1; ++i) {
        shares.push_back(threshold::generate_share(dealt.pub, dealt.shares[i - 1],
                                                   x, false, *srng));
      }
      auto y = threshold::assemble(dealt.pub, x, shares);
      if (!y) throw std::logic_error("test zone signing failed");
      return threshold::signature_bytes(dealt.pub, *y);
    };
  }

  dns::Zone signed_zone(const threshold::DealtKey& dealt, std::uint64_t seed) {
    dns::Zone zone = dns::Zone::from_text(origin_, kZoneText);
    dns::sign_zone(zone, dealt.pub.rsa(), kInception, kExpiration,
                   signer_for(dealt, seed));
    return zone;
  }

  /// The dealer's output an edge actually receives: the threshold zone
  /// PUBLIC key, written where the edge config points.
  std::string write_zone_public(const threshold::DealtKey& dealt) {
    const std::string path = dir_ + "/zone.pub";
    write_file(path, dealt.pub.encode());
    return path;
  }

  /// Stand-in core replica: a frontend whose handler serves queries and
  /// RFC 5936 transfer streams straight out of `server`. Runs on the test's
  /// main loop; `server` is loop-thread-confined after start.
  SockAddr start_core(dns::AuthoritativeServer* server,
                      std::unique_ptr<DnsFrontend>* out) {
    DnsFrontend::Options opt;
    opt.listen = SockAddr::parse("127.0.0.1:0");
    opt.enable_cache = false;
    *out = std::make_unique<DnsFrontend>(
        loop_, opt, [server, out](ClientId client, BytesView wire) {
          const dns::Message q = dns::Message::decode(wire);
          if (!q.questions.empty() &&
              (q.questions.front().type == dns::RRType::kAXFR ||
               q.questions.front().type == dns::RRType::kIXFR)) {
            std::vector<dns::Message> envelopes = server->answer_xfr(q, 60000);
            std::vector<Bytes> wires;
            wires.reserve(envelopes.size());
            for (const dns::Message& m : envelopes) wires.push_back(m.encode());
            (*out)->respond_xfr(client, wires);
            return;
          }
          (*out)->respond(client, server->answer_query(q).encode(), std::nullopt);
        });
    (*out)->start();
    return (*out)->bound_addr();
  }

  EdgeConfig edge_config(const std::string& zone_public, SockAddr core) {
    EdgeConfig cfg;
    cfg.origin = "example.com.";
    cfg.zone_public = zone_public;
    cfg.listen_dns = SockAddr::parse("127.0.0.1:0");
    cfg.core = {core};
    cfg.refresh_interval = 30.0;  // only NOTIFY / explicit refresh in tests
    cfg.retry_interval = 0.05;
    cfg.transfer_timeout = 2.0;
    return cfg;
  }

  /// Apply a TSIG-free dynamic update to the core server and complete its
  /// threshold signatures, so the journal diff (IXFR) carries verifying
  /// SIGs. Must run on the loop thread.
  static void apply_signed_update(dns::AuthoritativeServer& server,
                                  const dns::SignFn& sign,
                                  const std::string& name,
                                  const std::string& addr) {
    dns::Message update;
    update.opcode = dns::Opcode::kUpdate;
    update.questions.push_back(
        {dns::Name::parse("example.com."), dns::RRType::kSOA, dns::RRClass::kIN});
    dns::ResourceRecord rr;
    rr.name = dns::Name::parse(name);
    rr.type = dns::RRType::kA;
    rr.ttl = 300;
    rr.rdata = dns::ARdata::from_text(addr).encode();
    update.updates().push_back(rr);
    const dns::UpdateResult result = server.apply_update(update, kInception + 100);
    ASSERT_EQ(result.rcode, dns::Rcode::kNoError);
    for (const dns::SigTask& task : result.sig_tasks) {
      server.install_signature(task, sign(task.data));
    }
    server.finalize_journal();
  }

  /// The apex SOA record of `server`'s zone, as a commit point reports it.
  static dns::ResourceRecord soa_of(const dns::AuthoritativeServer& server) {
    const dns::Zone& zone = server.zone();
    return zone.find(zone.origin(), dns::RRType::kSOA)->to_records().front();
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

  static bool wait_for(const std::function<bool()>& pred, double timeout = 10.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      ::usleep(20 * 1000);
    }
    return pred();
  }

  static StubResolver resolver_for(SockAddr addr, double timeout = 1.0,
                                   unsigned attempts = 3) {
    StubResolver::Options opt;
    opt.servers = {addr};
    opt.timeout = timeout;
    opt.attempts = attempts;
    return StubResolver(opt);
  }

  EventLoop loop_;
  std::string dir_;
  dns::Name origin_ = dns::Name::parse("example.com.");
};

/// The bootstrap round trip with one frontend shard and with two, where
/// queries and transfer connections may land on a shard thread and cross to
/// the main loop and back.
class EdgeShardsTest : public EdgeTest,
                       public ::testing::WithParamInterface<unsigned> {};

TEST_P(EdgeShardsTest, AxfrBootstrapVerifiesServesAndRefeeds) {
  const threshold::DealtKey dealt = deal(7);
  auto core_server = std::make_unique<dns::AuthoritativeServer>(signed_zone(dealt, 7));
  const std::size_t core_records = core_server->zone().record_count();
  std::unique_ptr<DnsFrontend> core_frontend;
  const SockAddr core_addr = start_core(core_server.get(), &core_frontend);

  EdgeConfig cfg = edge_config(write_zone_public(dealt), core_addr);
  cfg.shards = GetParam();
  EdgeRuntime edge(loop_, cfg);
  edge.start();
  ASSERT_EQ(edge.shard_count(), GetParam());
  const SockAddr edge_addr = edge.frontend().bound_addr();

  run_with_client([&] {
    ASSERT_TRUE(wait_for([&] { return edge.ready(); }))
        << "edge never bootstrapped";
    EXPECT_EQ(edge.registry().counter("edge.axfr_bootstraps").value(), 1u);
    EXPECT_EQ(edge.registry().counter("edge.verify_failures").value(), 0u);

    // The edge serves the verified copy, threshold SIGs included.
    StubResolver r = resolver_for(edge_addr);
    const auto res = r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.response.rcode, dns::Rcode::kNoError);
    ASSERT_FALSE(res.response.answers.empty());
    bool has_sig = false;
    for (const auto& rr : res.response.answers) {
      if (rr.type == dns::RRType::kSIG) has_sig = true;
    }
    EXPECT_TRUE(has_sig) << "edge served an unsigned answer";

    // An edge can feed another edge: AXFR out of the edge itself reproduces
    // the full zone (the threshold signatures travel with it).
    dns::Message axfr;
    axfr.questions.push_back({origin_, dns::RRType::kAXFR, dns::RRClass::kIN});
    const auto stream = r.xfr(std::move(axfr));
    ASSERT_TRUE(stream.ok) << stream.error;
    ASSERT_EQ(stream.response.rcode, dns::Rcode::kNoError);
    dns::Zone copy(origin_);
    ASSERT_EQ(dns::apply_xfr_response(copy, stream.response),
              dns::XfrOutcome::kReplacedAxfr);
    EXPECT_EQ(copy.record_count(), core_records);
    EXPECT_TRUE(dns::verify_zone(copy).ok);
  });
}

INSTANTIATE_TEST_SUITE_P(Shards, EdgeShardsTest, ::testing::Values(1u, 2u),
                         ::testing::PrintToStringParamName());

TEST_F(EdgeTest, FailsClosedBeforeBootstrap) {
  const threshold::DealtKey dealt = deal(11);
  // No core is listening here: the bootstrap AXFR can never succeed.
  EdgeConfig cfg = edge_config(write_zone_public(dealt),
                               SockAddr::parse("127.0.0.1:1"));
  cfg.retry_interval = 0.2;
  cfg.transfer_timeout = 0.3;
  EdgeRuntime edge(loop_, cfg);
  edge.start();
  const SockAddr edge_addr = edge.frontend().bound_addr();

  run_with_client([&] {
    StubResolver r = resolver_for(edge_addr, /*timeout=*/0.5, /*attempts=*/2);
    const auto res = r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.response.rcode, dns::Rcode::kServFail);
    EXPECT_FALSE(edge.ready());
    EXPECT_GE(edge.registry().counter("edge.queries_before_bootstrap").value(), 1u);
    EXPECT_TRUE(wait_for([&] {
      return edge.registry().counter("edge.transfer_failures").value() >= 1;
    }));
  });
}

TEST_F(EdgeTest, NotifyTriggersIxfrOfSignedUpdate) {
  const threshold::DealtKey dealt = deal(13);
  const dns::SignFn sign = signer_for(dealt, 13);
  auto core_server = std::make_unique<dns::AuthoritativeServer>(signed_zone(dealt, 13));
  std::unique_ptr<DnsFrontend> core_frontend;
  const SockAddr core_addr = start_core(core_server.get(), &core_frontend);

  EdgeRuntime edge(loop_, edge_config(write_zone_public(dealt), core_addr));
  edge.start();
  const SockAddr edge_addr = edge.frontend().bound_addr();

  // The replica-side notifier, pointed at the edge — this is the exact
  // NOTIFY → ack → IXFR round trip of the deployment, minus the fork.
  obs::Registry notify_registry;
  Notifier::Options nopt;
  nopt.edges = {edge_addr};
  nopt.zone = origin_;
  nopt.metrics = &notify_registry;
  dns::AuthoritativeServer* core_raw = core_server.get();
  Notifier notifier(loop_, nopt);

  run_with_client([&] {
    ASSERT_TRUE(wait_for([&] { return edge.ready(); }));
    const std::uint64_t boot_gen = edge.generation();

    // Commit a signed update on the core (loop thread owns the server),
    // then fire the notifier.
    std::atomic<bool> committed{false};
    loop_.post([&] {
      apply_signed_update(*core_raw, sign, "added.example.com.", "10.1.1.1");
      notifier.start();
      notifier.on_commit(soa_of(*core_raw));
      committed.store(true, std::memory_order_release);
    });
    ASSERT_TRUE(wait_for([&] { return committed.load(std::memory_order_acquire); }));

    ASSERT_TRUE(wait_for([&] { return edge.generation() > boot_gen; }))
        << "edge never refreshed after NOTIFY";
    EXPECT_GE(edge.registry().counter("edge.notifies_received").value(), 1u);
    EXPECT_GE(edge.registry().counter("edge.ixfr_applied").value(), 1u)
        << "refresh fell back to AXFR instead of applying the journal diff";
    EXPECT_TRUE(wait_for([&] {
      return notify_registry.counter("replica.notify_acks").value() >= 1;
    })) << "edge never acked the NOTIFY";

    // The refreshed copy serves the update.
    StubResolver r = resolver_for(edge_addr);
    const auto res =
        r.query(dns::Name::parse("added.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.response.rcode, dns::Rcode::kNoError);
    EXPECT_FALSE(res.response.answers.empty());
  });
}

TEST_F(EdgeTest, ANotifyBurstCollapsesIntoFewRefreshes) {
  // The replica sends a NOTIFY round per commit point, with no debounce; the
  // edge folds whatever arrives while it refreshes into one pending refresh.
  // 200 NOTIFYs over 20 commits leave the edge at the newest serial after a
  // handful of transfers.
  const threshold::DealtKey dealt = deal(29);
  const dns::SignFn sign = signer_for(dealt, 29);
  auto core_server = std::make_unique<dns::AuthoritativeServer>(signed_zone(dealt, 29));
  std::unique_ptr<DnsFrontend> core_frontend;
  const SockAddr core_addr = start_core(core_server.get(), &core_frontend);
  EdgeRuntime edge(loop_, edge_config(write_zone_public(dealt), core_addr));
  edge.start();
  Notifier::Options nopt;
  nopt.edges = {edge.frontend().bound_addr()};
  nopt.zone = origin_;
  Notifier notifier(loop_, nopt);
  dns::AuthoritativeServer* core_raw = core_server.get();

  run_with_client([&] {
    ASSERT_TRUE(wait_for([&] { return edge.ready(); }));
    const std::uint64_t refreshes0 = edge.registry().counter("edge.refreshes").value();
    const std::uint64_t notifies0 = edge.registry().counter("edge.notifies_received").value();
    std::atomic<bool> sent{false};
    loop_.post([&] {
      notifier.start();
      for (int i = 0; i < 200; ++i) {
        if (i % 10 == 0) {
          apply_signed_update(*core_raw, sign, "burst" + std::to_string(i) + ".example.com.",
                              "10.3.0.1");
        }
        notifier.on_commit(soa_of(*core_raw));
      }
      sent.store(true, std::memory_order_release);
    });
    ASSERT_TRUE(wait_for([&] { return sent.load(std::memory_order_acquire); }));
    const std::uint32_t newest = 1 + 20;  // the seed serial, then 20 commits
    StubResolver r = resolver_for(edge.frontend().bound_addr());
    ASSERT_TRUE(wait_for([&] {
      const auto res = r.query(origin_, dns::RRType::kSOA);
      return res.ok && !res.response.answers.empty() &&
             dns::SoaRdata::decode(res.response.answers.front().rdata).serial == newest;
    })) << "the edge stopped short of the newest serial";
    // Loopback may drop a few datagrams of the burst; most must land.
    EXPECT_GE(edge.registry().counter("edge.notifies_received").value(), notifies0 + 100);
    const std::uint64_t refreshes = edge.registry().counter("edge.refreshes").value() - refreshes0;
    EXPECT_GE(refreshes, 1u);
    EXPECT_LE(refreshes, 10u) << "the edge refreshed per NOTIFY, not per burst";
    EXPECT_EQ(edge.registry().counter("edge.verify_failures").value(), 0u);
  });
}

TEST(Notifier, EveryCommitSendsARoundThatCancelsTheOldRetries) {
  // Each on_commit sends one NOTIFY at once, carrying that commit's SOA;
  // the older rounds' pending retransmissions are cancelled, so the only
  // retry (0.5 s on, nothing acks here) belongs to the newest round.
  EventLoop loop;
  const int sink = udp_bind(SockAddr::parse("127.0.0.1:0"));
  obs::Registry metrics;
  Notifier::Options nopt;
  nopt.edges = {local_addr(sink)};
  nopt.zone = dns::Name::parse("example.com.");
  nopt.metrics = &metrics;
  Notifier notifier(loop, nopt);
  notifier.start();
  dns::ResourceRecord soa;
  soa.name = nopt.zone;
  soa.type = dns::RRType::kSOA;
  soa.ttl = 3600;
  for (std::uint32_t serial = 1; serial <= 3; ++serial) {
    dns::SoaRdata rd;
    rd.mname = dns::Name::parse("ns1.example.com.");
    rd.rname = dns::Name::parse("admin.example.com.");
    rd.serial = serial;
    soa.rdata = rd.encode();
    notifier.on_commit(soa);
    EXPECT_EQ(metrics.counter("replica.notifies_sent").value(), serial);
  }
  loop.add_timer(Notifier::kRetryTimeout + 0.3, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(metrics.counter("replica.notifies_sent").value(), 4u);
  std::vector<std::uint32_t> serials;
  std::uint8_t buf[512];
  for (ssize_t n; (n = ::recv(sink, buf, sizeof buf, MSG_DONTWAIT)) > 0;) {
    const dns::Message m = dns::Message::decode({buf, static_cast<std::size_t>(n)});
    EXPECT_EQ(m.opcode, dns::Opcode::kNotify);
    ASSERT_EQ(m.answers.size(), 1u);
    serials.push_back(dns::SoaRdata::decode(m.answers[0].rdata).serial);
  }
  EXPECT_EQ(serials, (std::vector<std::uint32_t>{1, 2, 3, 3}));
  ::close(sink);
}

TEST_F(EdgeTest, TamperedZoneIsNeverInstalled) {
  const threshold::DealtKey dealt = deal(17);
  dns::Zone zone = signed_zone(dealt, 17);
  // Tamper after signing: the extra record invalidates its RRset's SIG.
  dns::ResourceRecord rogue;
  rogue.name = dns::Name::parse("www.example.com.");
  rogue.type = dns::RRType::kA;
  rogue.ttl = 3600;
  rogue.rdata = dns::ARdata::from_text("192.0.2.66").encode();
  zone.add_record(rogue);
  auto core_server = std::make_unique<dns::AuthoritativeServer>(std::move(zone));
  std::unique_ptr<DnsFrontend> core_frontend;
  const SockAddr core_addr = start_core(core_server.get(), &core_frontend);

  EdgeRuntime edge(loop_, edge_config(write_zone_public(dealt), core_addr));
  edge.start();
  const SockAddr edge_addr = edge.frontend().bound_addr();

  run_with_client([&] {
    // The transfer itself succeeds — it is the verification gate that must
    // hold the line, across repeated bootstrap attempts.
    ASSERT_TRUE(wait_for([&] {
      return edge.registry().counter("edge.verify_failures").value() >= 2;
    }));
    EXPECT_FALSE(edge.ready());
    StubResolver r = resolver_for(edge_addr, /*timeout=*/0.5, /*attempts=*/2);
    const auto res = r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.response.rcode, dns::Rcode::kServFail)
        << "edge served out of an unverified zone";
  });
}

TEST_F(EdgeTest, ZoneSignedUnderWrongKeyIsRejected) {
  const threshold::DealtKey dealt = deal(19);
  // Fully and consistently signed — but under a different dealt key (the
  // fixture primes pin the modulus, so a different modulus needs different
  // primes), so the apex KEY does not match the edge's trust anchor.
  util::Rng irng(23);
  const threshold::DealtKey impostor =
      threshold::deal_with_primes(irng, kN, kT,
                                  threshold::fixtures::safe_prime_512_a(),
                                  threshold::fixtures::safe_prime_512_b());
  auto core_server =
      std::make_unique<dns::AuthoritativeServer>(signed_zone(impostor, 23));
  std::unique_ptr<DnsFrontend> core_frontend;
  const SockAddr core_addr = start_core(core_server.get(), &core_frontend);

  EdgeRuntime edge(loop_, edge_config(write_zone_public(dealt), core_addr));
  edge.start();

  run_with_client([&] {
    ASSERT_TRUE(wait_for([&] {
      return edge.registry().counter("edge.verify_failures").value() >= 1;
    }));
    EXPECT_FALSE(edge.ready());
    EXPECT_EQ(edge.registry().counter("edge.axfr_bootstraps").value(), 0u);
  });
}

TEST_F(EdgeTest, TamperedIxfrIsRolledBack) {
  // After a good bootstrap the core journals an update it never signed: its
  // IXFR carries a forged A record at www and no SIG for it. The edge must
  // count the rejection and roll the diff back (same serial, same answers,
  // same generation), then apply the next valid update.
  const threshold::DealtKey dealt = deal(37);
  const dns::SignFn sign = signer_for(dealt, 37);
  const dns::Zone good = signed_zone(dealt, 37);
  auto core_server = std::make_unique<dns::AuthoritativeServer>(good);
  dns::AuthoritativeServer* core_raw = core_server.get();
  std::unique_ptr<DnsFrontend> core_frontend;
  const SockAddr core_addr = start_core(core_raw, &core_frontend);

  EdgeRuntime edge(loop_, edge_config(write_zone_public(dealt), core_addr));
  edge.start();
  const SockAddr edge_addr = edge.frontend().bound_addr();

  // The core server is loop-confined: mutate it there and wait.
  const auto on_loop = [&](const std::function<void()>& fn) {
    std::atomic<bool> done{false};
    loop_.post([&] {
      fn();
      done.store(true, std::memory_order_release);
    });
    return wait_for([&] { return done.load(std::memory_order_acquire); });
  };
  const auto ask = [&](const char* name, dns::RRType type) {
    StubResolver r = resolver_for(edge_addr);
    const auto res = r.query(dns::Name::parse(name), type);
    EXPECT_TRUE(res.ok) << name << ": " << res.error;
    return res.response;
  };
  const auto edge_serial = [&] {
    for (const auto& rr : ask("example.com.", dns::RRType::kSOA).answers) {
      if (rr.type == dns::RRType::kSOA) return dns::SoaRdata::decode(rr.rdata).serial;
    }
    return std::uint32_t{0};
  };
  const auto counter = [&](const char* name) {
    return edge.registry().counter(name).value();
  };

  run_with_client([&] {
    ASSERT_TRUE(wait_for([&] { return edge.ready(); })) << "edge never bootstrapped";
    const std::uint64_t boot_gen = edge.generation();
    const std::uint32_t boot_serial = edge_serial();
    const dns::Message www_before = ask("www.example.com.", dns::RRType::kA);
    ASSERT_FALSE(www_before.answers.empty());

    ASSERT_TRUE(on_loop([&] {
      dns::Message forged;
      forged.opcode = dns::Opcode::kUpdate;
      forged.questions.push_back({origin_, dns::RRType::kSOA, dns::RRClass::kIN});
      forged.updates().push_back({dns::Name::parse("www.example.com."), dns::RRType::kA,
                                  dns::RRClass::kIN, 300,
                                  dns::ARdata::from_text("192.0.2.66").encode()});
      ASSERT_EQ(core_raw->apply_update(forged, kInception + 100).rcode,
                dns::Rcode::kNoError);
      core_raw->finalize_journal();  // journaled with no SIGs installed
    }));
    edge.request_refresh();
    ASSERT_TRUE(wait_for([&] { return counter("edge.verify_failures") >= 1; }))
        << "edge never rejected the forged IXFR";
    EXPECT_EQ(counter("edge.ixfr_applied"), 0u);
    EXPECT_EQ(counter("edge.axfr_bootstraps"), 1u);
    EXPECT_EQ(edge.generation(), boot_gen);
    EXPECT_EQ(edge_serial(), boot_serial);
    EXPECT_EQ(ask("www.example.com.", dns::RRType::kA).answers, www_before.answers)
        << "edge serves the forged record";
    // A question the packet cache has not seen reads the zone itself.
    const Bytes forged_rdata = dns::ARdata::from_text("192.0.2.66").encode();
    for (const auto& rr : ask("www.example.com.", dns::RRType::kANY).answers) {
      EXPECT_FALSE(rr.type == dns::RRType::kA && rr.rdata == forged_rdata)
          << "the forged record is still in the serving zone";
    }

    // An honest core at the bootstrap serial commits a signed update; the
    // edge, still at that serial, applies it by IXFR.
    ASSERT_TRUE(on_loop([&] {
      *core_raw = dns::AuthoritativeServer(good);
      apply_signed_update(*core_raw, sign, "added.example.com.", "10.1.1.1");
    }));
    edge.request_refresh();
    ASSERT_TRUE(wait_for([&] { return edge.generation() > boot_gen; }))
        << "edge never applied the valid update";
    EXPECT_EQ(counter("edge.ixfr_applied"), 1u);
    EXPECT_EQ(counter("edge.axfr_bootstraps"), 1u);
    EXPECT_EQ(edge_serial(), boot_serial + 1);
    EXPECT_FALSE(ask("added.example.com.", dns::RRType::kA).answers.empty());
    EXPECT_EQ(ask("www.example.com.", dns::RRType::kA).answers, www_before.answers);
  });
}

TEST_F(EdgeTest, ChaosClassIsAnsweredLocallyByReplicaAndEdge) {
  // A real ReplicaRuntime (dealt by generate_cluster, its peers absent) and
  // an edge bootstrapping from it, both with two frontend shards. Both hosts
  // answer stats.sdns. and refuse unknown CH names; only the replica takes
  // the recover.sdns. nudge.
  ClusterOptions copt;
  copt.edges = 1;
  copt.seed = 29;
  const ClusterFiles files = generate_cluster(dir_, copt);

  RuntimeConfig rc = RuntimeConfig::load(files.configs[0]);
  rc.listen_dns = SockAddr::parse("127.0.0.1:0");
  rc.mesh_peers.assign(rc.n, SockAddr::parse("127.0.0.1:1"));  // unreachable
  rc.mesh_peers[rc.id] = SockAddr::parse("127.0.0.1:0");
  rc.notify_edges.clear();
  rc.shards = 2;
  ReplicaRuntime replica(loop_, rc);
  replica.start();
  const SockAddr replica_addr = replica.frontend().bound_addr();

  EdgeConfig ec = EdgeConfig::load(files.edge_configs[0]);
  ec.listen_dns = SockAddr::parse("127.0.0.1:0");
  ec.core = {replica_addr};
  ec.retry_interval = 0.05;
  ec.shards = 2;
  EdgeRuntime edge(loop_, ec);
  edge.start();
  const SockAddr edge_addr = edge.frontend().bound_addr();

  run_with_client([&] {
    // The bootstrap AXFR streams out of the replica's shared XFR-out path.
    ASSERT_TRUE(wait_for([&] { return edge.ready(); })) << "edge never bootstrapped";
    const auto ch_rcode = [](SockAddr addr, const char* name) {
      StubResolver r = resolver_for(addr);
      const auto res =
          r.query(dns::Name::parse(name), dns::RRType::kTXT, dns::RRClass::kCH);
      EXPECT_TRUE(res.ok) << name << ": " << res.error;
      return res.response.rcode;
    };
    for (const bool is_replica : {true, false}) {
      SCOPED_TRACE(is_replica ? "replica" : "edge");
      const SockAddr addr = is_replica ? replica_addr : edge_addr;
      const auto stats = scrape_stats(addr);
      EXPECT_EQ(stats.count("net.udp.queries"), 1u);
      EXPECT_EQ(stats.count(is_replica ? "replica.reads" : "edge.axfr_bootstraps"), 1u);
      EXPECT_EQ(ch_rcode(addr, "unknown.sdns."), dns::Rcode::kRefused);
      EXPECT_EQ(ch_rcode(addr, "recover.sdns."),
                is_replica ? dns::Rcode::kNoError : dns::Rcode::kRefused);
    }
  });
}

/// The observation form's round trip: a live ReplicaRuntime exports its
/// replica's observe() as stats.sdns. gauges, and scrape_counters +
/// observation_from_counters — the wire campaign's reader — must give back
/// every field unchanged, including the -1 floor of an empty delivery log
/// and the full 63 bits of each digest.
class Observe : public EdgeTest {};

TEST_F(Observe, GaugesRoundTripThroughScrapeCounters) {
  ClusterOptions copt;
  copt.seed = 31;
  const ClusterFiles files = generate_cluster(dir_, copt);
  RuntimeConfig rc = RuntimeConfig::load(files.configs[0]);
  rc.listen_dns = SockAddr::parse("127.0.0.1:0");
  rc.mesh_peers.assign(rc.n, SockAddr::parse("127.0.0.1:1"));  // unreachable
  rc.mesh_peers[rc.id] = SockAddr::parse("127.0.0.1:0");
  rc.notify_edges.clear();
  ReplicaRuntime replica(loop_, rc);
  replica.start();
  const SockAddr addr = replica.frontend().bound_addr();
  // Peerless, the replica delivers nothing: observe it before the loop runs
  // and again after, so the test thread never reads it concurrently.
  const core::ReplicaObservation want = replica.replica().observe();
  ASSERT_EQ(want.digest_floor, -1);

  std::map<std::string, std::int64_t> counters;
  run_with_client([&] { counters = scrape_counters(addr); });
  ASSERT_FALSE(counters.empty()) << "stats.sdns. scrape failed";
  EXPECT_EQ(counters.at("abcast.digest_floor"), -1);

  const core::ReplicaObservation got = observation_from_counters(counters);
  const core::ReplicaObservation now = replica.replica().observe();
  for (const core::ReplicaObservation* o : {&want, &now}) {
    EXPECT_EQ(got.delivered, o->delivered);
    EXPECT_EQ(got.recovering, o->recovering);
    EXPECT_EQ(got.fallbacks, o->fallbacks);
    EXPECT_EQ(got.malformed_sigs, o->malformed_sigs);
    EXPECT_EQ(got.digest_floor, o->digest_floor);
    EXPECT_EQ(got.delivery_digest, o->delivery_digest);
    EXPECT_EQ(got.zone_digest, o->zone_digest);
  }
}

}  // namespace
}  // namespace sdns::net
