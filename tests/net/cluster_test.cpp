// Multi-process loopback integration test: the real deployment, in miniature.
//
// Deals a (4,1) cluster with generate_cluster, forks four replica processes
// (each runs EventLoop + ReplicaRuntime — byte-identical to the sdnsd
// binary's code path), then from the parent:
//   - dig over real UDP sockets against several replicas (signed answers),
//   - dig over TCP (TC-free path),
//   - nsupdate (TSIG-signed RFC 2136 update) and convergence on ALL replicas,
//   - SIGKILL one replica, update while it is down, restart it with
//     recovery, and assert it converges to the post-crash zone.
//
// Each fixture holds a PortBlock, which keeps parallel ctest runs apart.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "dns/dnssec.hpp"
#include "dns/edns.hpp"
#include "dns/xfr.hpp"
#include "net/cluster.hpp"
#include "net/edge.hpp"
#include "net/resolver.hpp"
#include "net/runtime.hpp"

namespace sdns::net {
namespace {

using util::Bytes;

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sdns_cluster_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;

    ClusterOptions opt;
    opt.n = 4;
    opt.t = 1;
    opt.require_tsig = true;
    opt.seed = 42;
    opt.shards = shards_;
    opt.disseminate_reads = disseminate_reads_;
    opt.edges = edges_;
    opt.journal_limit = journal_limit_;
    // 4 DNS + 4 mesh + up to 4 edge ports from this fixture's block.
    const std::uint16_t base = ports_.base();
    opt.dns_base_port = base;
    opt.mesh_base_port = base + 4;
    opt.edge_base_port = base + 8;
    files_ = generate_cluster(dir_, opt);
    tsig_key_ = {files_.tsig_name, util::hex_decode(files_.tsig_secret_hex)};

    pids_.assign(4, -1);
    for (unsigned i = 0; i < 4; ++i) spawn(i, /*recover=*/false);
    for (unsigned i = 0; i < 4; ++i) {
      ASSERT_TRUE(wait_until_up(i)) << "replica " << i << " never came up";
    }
    edge_pids_.assign(edges_, -1);
    for (unsigned k = 0; k < edges_; ++k) spawn_edge(k);
    for (unsigned k = 0; k < edges_; ++k) {
      // Edges answer ServFail until the AXFR bootstrap verifies + installs.
      ASSERT_TRUE(converges_at(files_.edge_addrs[k], "www.example.com.", 20.0))
          << "edge " << k << " never bootstrapped";
    }
  }

  void TearDown() override {
    for (pid_t pid : edge_pids_) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t pid : edge_pids_) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    (void)std::system(cleanup.c_str());
  }

  /// Fork one replica process; its code path is exactly sdnsd's.
  void spawn(unsigned id, bool recover) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        RuntimeConfig config = RuntimeConfig::load(files_.configs[id]);
        config.recover = recover;
        config.recover_delay = 0.5;
        EventLoop loop;
        ReplicaRuntime runtime(loop, std::move(config));
        runtime.start();
        loop.run();
        std::_Exit(0);
      } catch (...) {
        std::_Exit(1);
      }
    }
    pids_[id] = pid;
  }

  /// Fork one edge process; its code path is exactly sdns_edge's. The retry
  /// and refresh cadences are tightened so the test converges fast even if
  /// an edge comes up before the core or a NOTIFY datagram is lost.
  void spawn_edge(unsigned k) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        EdgeConfig config = EdgeConfig::load(files_.edge_configs[k]);
        config.retry_interval = 0.3;
        config.refresh_interval = 3.0;
        EventLoop loop;
        EdgeRuntime runtime(loop, std::move(config));
        runtime.start();
        loop.run();
        std::_Exit(0);
      } catch (...) {
        std::_Exit(1);
      }
    }
    edge_pids_[k] = pid;
  }

  void kill_replica(unsigned id) {
    ASSERT_GT(pids_[id], 0);
    ::kill(pids_[id], SIGKILL);
    ::waitpid(pids_[id], nullptr, 0);
    pids_[id] = -1;
  }

  static StubResolver resolver_at(const SockAddr& addr, double timeout = 1.0,
                                  unsigned attempts = 10) {
    StubResolver::Options opt;
    opt.servers = {addr};
    opt.timeout = timeout;
    opt.attempts = attempts;
    return StubResolver(opt);
  }

  StubResolver resolver_for(unsigned id, double timeout = 1.0,
                            unsigned attempts = 10) const {
    return resolver_at(files_.dns_addrs[id], timeout, attempts);
  }

  bool wait_until_up(unsigned id) {
    StubResolver probe = resolver_for(id, /*timeout=*/0.5, /*attempts=*/30);
    const auto r =
        probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    return r.ok;
  }

  /// Wait until the server at `addr` serves `name` with an A record (updates
  /// are applied asynchronously after abcast delivery + threshold signing;
  /// edges lag one more NOTIFY/IXFR hop behind).
  static bool converges_at(const SockAddr& addr, const std::string& name,
                           double timeout = 15.0) {
    StubResolver r = resolver_at(addr, /*timeout=*/0.5, /*attempts=*/1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto res = r.query(dns::Name::parse(name), dns::RRType::kA);
      if (res.ok && res.response.rcode == dns::Rcode::kNoError &&
          !res.response.answers.empty()) {
        return true;
      }
      ::usleep(200 * 1000);
    }
    return false;
  }

  bool converges_on(unsigned id, const std::string& name, double timeout = 15.0) {
    return converges_at(files_.dns_addrs[id], name, timeout);
  }

  StubResolver::Result add_record(unsigned via, const std::string& name,
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
    StubResolver r = resolver_for(via, /*timeout=*/5.0, /*attempts=*/3);
    return r.send_update(std::move(update), &tsig_key_);
  }

  StubResolver::Result delete_record(unsigned via, const std::string& name) {
    dns::Message update;
    update.opcode = dns::Opcode::kUpdate;
    update.questions.push_back(
        {dns::Name::parse("example.com."), dns::RRType::kSOA, dns::RRClass::kIN});
    dns::ResourceRecord rr;
    rr.name = dns::Name::parse(name);
    rr.type = dns::RRType::kA;
    rr.klass = dns::RRClass::kANY;  // delete the RRset (RFC 2136 §2.5.2)
    rr.ttl = 0;
    update.updates().push_back(rr);
    StubResolver r = resolver_for(via, /*timeout=*/5.0, /*attempts=*/3);
    return r.send_update(std::move(update), &tsig_key_);
  }

  /// One replica's live counters over the wire (stats.sdns. CH TXT).
  std::map<std::string, std::int64_t> scrape_stats(unsigned id) {
    return scrape_counters(files_.dns_addrs[id]);
  }

  /// AXFR the zone from `addr` over the real TCP frontend, reassembled from
  /// the RFC 5936 envelope stream, and verify the copy against the dealt
  /// threshold zone key — the same trust gate an edge applies.
  dns::Zone fetch_and_verify_zone(const SockAddr& addr) {
    StubResolver r = resolver_at(addr, /*timeout=*/5.0, /*attempts=*/3);
    dns::Message axfr;
    axfr.questions.push_back({dns::Name::parse("example.com."),
                              dns::RRType::kAXFR, dns::RRClass::kIN});
    const auto res = r.xfr(std::move(axfr));
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.response.rcode, dns::Rcode::kNoError);
    dns::Zone zone(dns::Name::parse("example.com."));
    EXPECT_EQ(dns::apply_xfr_response(zone, res.response),
              dns::XfrOutcome::kReplacedAxfr);
    const dns::RRset* keys = zone.find(zone.origin(), dns::RRType::kKEY);
    EXPECT_NE(keys, nullptr) << "transferred zone carries no apex KEY";
    if (keys && !keys->rdatas.empty()) {
      const crypto::RsaPublicKey pub =
          dns::zone_key_from_record(dns::KeyRdata::decode(keys->rdatas.front()));
      EXPECT_TRUE(pub.n == files_.zone_key.n && pub.e == files_.zone_key.e)
          << "transferred apex KEY is not the dealt zone key";
    }
    EXPECT_TRUE(dns::verify_zone(zone).ok)
        << "transferred zone failed threshold-signature verification";
    return zone;
  }

  PortBlock ports_;
  std::string dir_;
  ClusterFiles files_;
  dns::TsigKey tsig_key_;
  std::vector<pid_t> pids_;
  std::vector<pid_t> edge_pids_;
  /// Frontend shards per replica; subclasses set this before SetUp runs.
  unsigned shards_ = 1;
  /// §3.4 rare-update mode: reads go through atomic broadcast, so their
  /// responses are produced asynchronously. Subclasses set before SetUp.
  bool disseminate_reads_ = false;
  /// Replication edges forked alongside the replicas. Subclasses set before
  /// SetUp; the generated replica configs then carry matching notify lines.
  unsigned edges_ = 0;
  /// IXFR journal depth in the generated replica configs (0 = default).
  std::size_t journal_limit_ = 0;
};

TEST_F(ClusterTest, ServesSignedZoneCrashAndRecover) {
  // ---- dig over UDP against two different replicas ----
  for (unsigned id : {0u, 2u}) {
    StubResolver r = resolver_for(id);
    const auto res =
        r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok) << "replica " << id;
    EXPECT_EQ(res.response.rcode, dns::Rcode::kNoError);
    EXPECT_FALSE(res.used_tcp);
    ASSERT_FALSE(res.response.answers.empty());
    // The answer carries the zone's threshold SIG.
    bool has_sig = false;
    for (const auto& rr : res.response.answers) {
      if (rr.type == dns::RRType::kSIG) has_sig = true;
    }
    EXPECT_TRUE(has_sig) << "replica " << id << " served an unsigned answer";
  }

  // ---- CHAOS-class introspection: scraped stats track client-observed
  //      query counts ----
  {
    const auto before = scrape_stats(0);
    ASSERT_FALSE(before.empty()) << "stats.sdns. CH TXT scrape failed";
    ASSERT_TRUE(before.count("replica.reads"));
    ASSERT_TRUE(before.count("net.udp.queries"));

    constexpr unsigned kProbes = 5;
    unsigned answered = 0;
    StubResolver probe = resolver_for(0, /*timeout=*/1.0, /*attempts=*/2);
    for (unsigned i = 0; i < kProbes; ++i) {
      const auto res =
          probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
      if (res.ok) ++answered;
    }
    ASSERT_GT(answered, 0u);

    const auto after = scrape_stats(0);
    ASSERT_FALSE(after.empty());
    // Every answered query was counted at the transport; retransmits can
    // only add to the server-side view, never subtract.
    EXPECT_GE(after.at("net.udp.queries"),
              before.at("net.udp.queries") + answered);
    // Cache hits contribute NO latency samples (a zero-valued sample per
    // hit would drag p50/p99 to 0 while max stays in the thousands — the
    // scrape bug this guards against), so the probe burst must grow the
    // histogram by strictly fewer than `answered`. The CH scrape itself is
    // timed (its sample lands after its response renders), hence < rather
    // than ==.
    EXPECT_LT(after.at("net.query.latency_us.count") -
                  before.at("net.query.latency_us.count"),
              answered);
    // The replica-path samples recorded during startup are real wall-clock
    // latencies (an abcast round each), so the scraped percentiles must be
    // non-zero whenever samples exist.
    ASSERT_GT(after.at("net.query.latency_us.count"), 0u);
    EXPECT_GT(after.at("net.query.latency_us.p50"), 0u);
    EXPECT_GT(after.at("net.query.latency_us.p99"), 0u);
    // The probes repeat a question already answered once during startup, so
    // they are served from the shard packet cache and never reach the
    // replicated state machine: replica.reads stays flat, cache hits grow.
    EXPECT_EQ(after.at("replica.reads"), before.at("replica.reads"));
    EXPECT_GE(after.at("net.cache.hits"),
              before.at("net.cache.hits") + answered);
    // Fault-free cluster: the optimistic abcast path never fell back.
    EXPECT_EQ(after.at("abcast.fallback"), 0u);
  }

  // ---- dig over TCP ----
  {
    StubResolver::Options topt;
    topt.servers = {files_.dns_addrs[1]};
    topt.timeout = 2.0;
    topt.tcp_only = true;
    StubResolver r(topt);
    const auto res =
        r.query(dns::Name::parse("mail.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    EXPECT_TRUE(res.used_tcp);
    EXPECT_FALSE(res.response.tc);
    EXPECT_FALSE(res.response.answers.empty());
  }

  // ---- nsupdate: TSIG-signed dynamic update, converges everywhere ----
  {
    const auto res = add_record(0, "added.example.com.", "10.1.1.1");
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    for (unsigned id = 0; id < 4; ++id) {
      EXPECT_TRUE(converges_on(id, "added.example.com."))
          << "replica " << id << " never served the update";
    }
  }

  // ---- crash one replica; the cluster (n=4, t=1) keeps serving ----
  kill_replica(2);
  {
    const auto res = add_record(0, "while-down.example.com.", "10.2.2.2");
    ASSERT_TRUE(res.ok) << "update failed with one replica down";
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    for (unsigned id : {0u, 1u, 3u}) {
      EXPECT_TRUE(converges_on(id, "while-down.example.com."));
    }
  }

  // ---- restart it with snapshot recovery; it must catch up ----
  spawn(2, /*recover=*/true);
  ASSERT_TRUE(wait_until_up(2)) << "restarted replica never came up";
  EXPECT_TRUE(converges_on(2, "while-down.example.com."))
      << "recovered replica missed the update applied while it was down";
  EXPECT_TRUE(converges_on(2, "added.example.com."));

  // ---- and participates in new updates again ----
  {
    const auto res = add_record(2, "after-recovery.example.com.", "10.3.3.3");
    ASSERT_TRUE(res.ok);
    for (unsigned id = 0; id < 4; ++id) {
      EXPECT_TRUE(converges_on(id, "after-recovery.example.com."));
    }
  }
}

/// Same (4,1) cluster, but every replica runs four SO_REUSEPORT frontend
/// shards — the read-scaling deployment shape.
TEST_F(ClusterTest, AnswersDuringSigningCarryOnlyInstalledSigs) {
  // Replica 1 answers DO reads and zone transfers while a closed-loop client
  // commits adds and deletes through replica 0. What reaches a replica while
  // a batch signs waits for the batch's commit point, so every SIG in every
  // answer verifies under the dealt key — the NXDOMAIN proofs next to the
  // names being added and deleted included — and every transferred zone
  // verifies whole.
  constexpr int kRounds = 12;
  const dns::Name origin = dns::Name::parse("example.com.");
  // "mzNN" sorts between "mail" and "ns1", so each add and delete changes
  // the NXT at its neighbours.
  const auto name = [](int i, const char* suffix = "") {
    char buf[48];
    std::snprintf(buf, sizeof buf, "mz%02d%s.example.com.", i, suffix);
    return std::string(buf);
  };
  std::atomic<int> current{1};
  std::atomic<bool> stop{false};
  std::vector<std::string> bad;  // written by one thread each until joined
  std::vector<std::string> bad_zones;
  unsigned positive = 0, nxdomain = 0, axfrs = 0, ixfrs = 0;

  std::thread reader([&] {
    StubResolver r = resolver_for(1, /*timeout=*/0.5, /*attempts=*/1);
    while (!stop.load(std::memory_order_relaxed)) {
      const int i = current.load(std::memory_order_relaxed);
      for (const std::string& q : {name(i), name(i, "a"), name(i - 1), name(i - 1, "a"),
                                   std::string("my.example.com.")}) {
        dns::Message m = dns::Message::make_query(0, dns::Name::parse(q), dns::RRType::kA);
        dns::EdnsInfo edns;
        edns.udp_payload = 4096;
        edns.dnssec_ok = true;
        dns::set_edns(m, edns);
        const auto res = r.exchange(std::move(m));
        if (!res.ok) continue;
        const dns::Rcode rcode = res.response.rcode;
        if (rcode == dns::Rcode::kNxDomain) ++nxdomain;
        if (rcode == dns::Rcode::kNoError && !res.response.answers.empty()) ++positive;
        if (!core::Client::response_acceptable(res.response, files_.zone_key)) {
          bad.push_back(q + " " + dns::to_string(rcode));
        }
      }
    }
  });
  std::thread transfers([&] {
    StubResolver r = resolver_for(1, /*timeout=*/5.0, /*attempts=*/3);
    std::optional<dns::Zone> secondary;  // kept current by IXFR
    while (!stop.load(std::memory_order_relaxed)) {
      dns::Message axfr;
      axfr.questions.push_back({origin, dns::RRType::kAXFR, dns::RRClass::kIN});
      const auto full = r.xfr(std::move(axfr));
      dns::Zone zone(origin);
      if (full.ok && dns::apply_xfr_response(zone, full.response) ==
                         dns::XfrOutcome::kReplacedAxfr) {
        ++axfrs;
        if (!dns::verify_zone(zone, files_.zone_key).ok) {
          bad_zones.push_back("AXFR at serial " + std::to_string(zone.soa()->serial));
        }
        if (!secondary) secondary = std::move(zone);
      }
      if (!secondary) continue;
      const auto diff = r.xfr(make_ixfr_query(0, origin, *secondary->soa()));
      if (!diff.ok) continue;
      if (dns::apply_xfr_response(*secondary, diff.response) == dns::XfrOutcome::kAppliedIxfr) {
        ++ixfrs;
        if (!dns::verify_zone(*secondary, files_.zone_key).ok) {
          bad_zones.push_back("IXFR to serial " + std::to_string(secondary->soa()->serial));
        }
      }
    }
  });

  // The closed-loop client: add mzNN, then delete mz(NN-1).
  bool committed = true;
  for (int i = 1; i <= kRounds && committed; ++i) {
    current.store(i, std::memory_order_relaxed);
    const auto add = add_record(0, name(i), "10.6.0." + std::to_string(i));
    committed = add.ok && add.response.rcode == dns::Rcode::kNoError;
    if (committed && i > 1) {
      const auto del = delete_record(0, name(i - 1));
      committed = del.ok && del.response.rcode == dns::Rcode::kNoError;
    }
  }
  ::usleep(200 * 1000);  // replica 1 applies the last batch; reads go on
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  transfers.join();

  ASSERT_TRUE(committed) << "an update failed";
  EXPECT_TRUE(bad.empty()) << bad.size() << " answers carry a SIG that does not verify, first: "
                           << bad.front();
  EXPECT_TRUE(bad_zones.empty()) << bad_zones.size()
                                 << " transferred zones fail verification, first: "
                                 << bad_zones.front();
  EXPECT_GT(positive, 0u);
  EXPECT_GT(nxdomain, 0u);
  EXPECT_GT(axfrs, 0u);
  EXPECT_GT(ixfrs, 0u);
  // Replica 1 ends at the last commit, and its transfer verifies.
  ASSERT_TRUE(converges_on(1, name(kRounds)));
  fetch_and_verify_zone(files_.dns_addrs[1]);
  const auto stats = scrape_stats(1);
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats.at("replica.held_dropped"), 0);
}

class ShardedClusterTest : public ClusterTest {
 protected:
  ShardedClusterTest() { shards_ = 4; }

  static double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

TEST_F(ShardedClusterTest, CachedReadsAcrossShardsNeverGoStale) {
  // ---- warm the packet caches: every StubResolver query uses a fresh
  //      source port, so the kernel's REUSEPORT hash spreads these across
  //      all four shards of replica 0 ----
  for (int i = 0; i < 16; ++i) {
    StubResolver r = resolver_for(0, /*timeout=*/1.0, /*attempts=*/2);
    const auto res =
        r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    ASSERT_FALSE(res.response.answers.empty());
  }
  {
    const auto stats = scrape_stats(0);
    ASSERT_FALSE(stats.empty());
    EXPECT_GT(stats.at("net.cache.hits"), 0u)
        << "16 identical reads produced no cache hits";
    // The introspection queries themselves are CHAOS class — never cached.
    EXPECT_GT(stats.at("net.cache.bypass.class"), 0u);
  }

  // ---- mutation during load: hammer a name that starts as NXDOMAIN (the
  //      negative answer gets cached), add it mid-stream with a signed
  //      update, and assert that no read *sent after the update was
  //      acknowledged* ever sees the stale NXDOMAIN again ----
  const std::string name = "fresh.example.com.";
  std::atomic<bool> stop{false};
  std::vector<std::pair<double, dns::Rcode>> observed;  // (send time, rcode)
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      StubResolver r = resolver_for(0, /*timeout=*/0.5, /*attempts=*/1);
      const double sent = now_s();
      const auto res = r.query(dns::Name::parse(name), dns::RRType::kA);
      if (res.ok) observed.emplace_back(sent, res.response.rcode);
    }
  });

  ::usleep(300 * 1000);  // some pre-update NXDOMAIN traffic
  const auto upd = add_record(0, name, "10.9.9.9");
  const double acked = now_s();  // replica 0 bumped its generation by now
  ASSERT_TRUE(upd.ok);
  ASSERT_EQ(upd.response.rcode, dns::Rcode::kNoError);
  ::usleep(500 * 1000);  // post-update traffic
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  unsigned before_nx = 0, after_fresh = 0;
  for (const auto& [sent, rcode] : observed) {
    if (sent < acked) {
      before_nx += (rcode == dns::Rcode::kNxDomain);
    } else {
      after_fresh += (rcode == dns::Rcode::kNoError);
      // The no-stale invariant: a query sent after the update acknowledgment
      // must never be answered from a pre-update cache entry.
      EXPECT_NE(rcode, dns::Rcode::kNxDomain)
          << "stale cached NXDOMAIN served after the update was applied";
    }
  }
  EXPECT_GT(before_nx, 0u) << "no pre-update reads landed; test proves nothing";
  EXPECT_GT(after_fresh, 0u) << "no post-update reads landed";

  // The other replicas converge through abcast as usual.
  for (unsigned id = 0; id < 4; ++id) {
    EXPECT_TRUE(converges_on(id, name)) << "replica " << id;
  }

  // A generation flush happened on at least one shard of replica 0.
  const auto stats = scrape_stats(0);
  ASSERT_FALSE(stats.empty());
  EXPECT_GT(stats.at("net.cache.flushes"), 0u);
}

/// Four shards AND disseminated reads: every read response is produced
/// asynchronously (after abcast delivery), so it can only be cached if the
/// runtime routes it back to the shard that registered the pending store —
/// the shard carried in the UDP ClientId, not whichever shard happens to be
/// current when the response is routed.
class DisseminatedShardedClusterTest : public ClusterTest {
 protected:
  DisseminatedShardedClusterTest() {
    shards_ = 4;
    disseminate_reads_ = true;
  }
};

/// journal_limit = 1: after a few updates every older serial has fallen out
/// of the IXFR journal, so a stale-serial IXFR must come back in AXFR format
/// (RFC 1995 §4) — the fallback an edge recovers through after being
/// offline longer than the journal covers.
class TruncatedJournalClusterTest : public ClusterTest {
 protected:
  TruncatedJournalClusterTest() { journal_limit_ = 1; }
};

TEST_F(TruncatedJournalClusterTest, StaleIxfrFallsBackToAxfrOverTheWire) {
  // ---- the seed zone AXFRs out of the live TCP frontend and verifies ----
  const dns::Zone seed_zone = fetch_and_verify_zone(files_.dns_addrs[0]);
  EXPECT_GT(seed_zone.record_count(), 0u);
  const auto seed_soa = seed_zone.soa();
  ASSERT_TRUE(seed_soa.has_value());

  // ---- three signed updates; journal depth 1 forgets all but the last ----
  for (int i = 0; i < 3; ++i) {
    const std::string name = "u" + std::to_string(i) + ".example.com.";
    const auto res = add_record(0, name, "10.7.0." + std::to_string(i + 1));
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    ASSERT_TRUE(converges_on(0, name));
  }

  // ---- IXFR from the seed serial: the journal no longer covers it, so the
  //      replica answers in AXFR format and the client's copy is replaced
  //      wholesale — and still verifies under the dealt zone key ----
  {
    StubResolver r = resolver_at(files_.dns_addrs[0], /*timeout=*/5.0,
                                 /*attempts=*/3);
    const auto res = r.xfr(make_ixfr_query(
        0, dns::Name::parse("example.com."), *seed_soa));
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    dns::Zone copy = seed_zone;
    ASSERT_EQ(dns::apply_xfr_response(copy, res.response),
              dns::XfrOutcome::kReplacedAxfr)
        << "stale IXFR did not fall back to AXFR format";
    EXPECT_NE(copy.find(dns::Name::parse("u2.example.com."), dns::RRType::kA),
              nullptr);
    EXPECT_TRUE(dns::verify_zone(copy).ok);

    // ---- and an IXFR from the now-current serial is a lone SOA ----
    const auto fresh_soa = copy.soa();
    ASSERT_TRUE(fresh_soa.has_value());
    const auto res2 = r.xfr(make_ixfr_query(
        0, dns::Name::parse("example.com."), *fresh_soa));
    ASSERT_TRUE(res2.ok) << res2.error;
    dns::Zone copy2 = copy;
    EXPECT_EQ(dns::apply_xfr_response(copy2, res2.response),
              dns::XfrOutcome::kUpToDate);
  }

  const auto stats = scrape_stats(0);
  ASSERT_FALSE(stats.empty());
  EXPECT_GE(stats.at("replica.axfr_out"), 1u);
  EXPECT_GE(stats.at("replica.ixfr_out"), 2u);
  EXPECT_GE(stats.at("replica.ixfr_fallback_axfr"), 1u);
}

/// The full replication-edge deployment in miniature: a 4-replica core with
/// two forked sdns_edge processes riding NOTIFY + IXFR behind it.
class EdgeClusterTest : public ClusterTest {
 protected:
  EdgeClusterTest() { edges_ = 2; }
};

TEST_F(EdgeClusterTest, EdgesFollowCommittedUpdatesAndStayVerified) {
  // SetUp already proved both edges bootstrapped (they answered NOERROR);
  // the bootstrap path must have been one verified AXFR each.
  for (unsigned k = 0; k < 2; ++k) {
    const auto stats = scrape_counters(files_.edge_addrs[k]);
    ASSERT_FALSE(stats.empty()) << "edge " << k << " stats scrape failed";
    EXPECT_GE(stats.at("edge.axfr_bootstraps"), 1u);
    EXPECT_EQ(stats.at("edge.verify_failures"), 0u);
  }

  // ---- edges serve the threshold-signed zone ----
  {
    StubResolver r = resolver_at(files_.edge_addrs[0]);
    const auto res =
        r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    bool has_sig = false;
    for (const auto& rr : res.response.answers) {
      if (rr.type == dns::RRType::kSIG) has_sig = true;
    }
    EXPECT_TRUE(has_sig) << "edge served an unsigned answer";
  }

  // ---- a TSIG-signed update through the core propagates to both edges:
  //      commit → NOTIFY → ack → IXFR → verify → swap ----
  const auto res = add_record(0, "edge-fresh.example.com.", "10.8.8.8");
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
  for (unsigned k = 0; k < 2; ++k) {
    EXPECT_TRUE(converges_at(files_.edge_addrs[k], "edge-fresh.example.com.", 20.0))
        << "edge " << k << " never served the committed update";
  }

  // ---- the refresh was incremental and NOTIFY-driven ----
  for (unsigned k = 0; k < 2; ++k) {
    const auto stats = scrape_counters(files_.edge_addrs[k]);
    ASSERT_FALSE(stats.empty());
    EXPECT_GE(stats.at("edge.notifies_received"), 1u)
        << "edge " << k << " refreshed only via the polling backstop";
    EXPECT_GE(stats.at("edge.ixfr_applied"), 1u)
        << "edge " << k << " fell back to AXFR for an in-journal refresh";
    EXPECT_EQ(stats.at("edge.verify_failures"), 0u);
  }
  std::uint64_t notifies_sent = 0, acks = 0;
  for (unsigned id = 0; id < 4; ++id) {
    const auto stats = scrape_stats(id);
    ASSERT_FALSE(stats.empty());
    notifies_sent += stats.at("replica.notifies_sent");
    acks += stats.at("replica.notify_acks");
  }
  EXPECT_GE(notifies_sent, 1u);
  EXPECT_GE(acks, 1u);
}

TEST_F(DisseminatedShardedClusterTest, AsyncReadResponsesAreCachedOnTheirShard) {
  // Fresh source port per query, so the kernel's REUSEPORT hash spreads
  // these across all four shards of replica 0.
  constexpr unsigned kReads = 48;
  unsigned answered = 0;
  for (unsigned i = 0; i < kReads; ++i) {
    StubResolver r = resolver_for(0, /*timeout=*/2.0, /*attempts=*/2);
    const auto res =
        r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok) << "disseminated read " << i << " went unanswered";
    ASSERT_EQ(res.response.rcode, dns::Rcode::kNoError);
    ASSERT_FALSE(res.response.answers.empty());
    ++answered;
  }
  const auto stats = scrape_stats(0);
  ASSERT_FALSE(stats.empty());
  // Each shard misses once to warm its own entry; everything after must be
  // a hit. Pre-fix, responses were routed to shard 0 regardless of origin,
  // so only ~a quarter of the traffic could ever hit — requiring a strict
  // majority of hits is what this regression pins down.
  EXPECT_GE(stats.at("net.cache.hits"), answered / 2)
      << "async read responses are not reaching the shard that registered "
         "their pending cache-store entry";
  EXPECT_GE(stats.at("net.cache.stores"), 1u);
}

}  // namespace
}  // namespace sdns::net
