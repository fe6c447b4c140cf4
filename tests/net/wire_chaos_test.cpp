// Wire-chaos regression suite: fixed fault scenarios against REAL forked
// replica processes (net::run_wire_chaos), each asserting the full PR-2
// invariant set over the wire — zone convergence, abcast agreement,
// recovery completion, liveness probes, and the packet-cache no-stale probe
// after heal. Three pinned scenarios cover the three fault families the
// campaigns draw from:
//   - PartitionHeal:  a replica is message-partitioned mid-run and must
//                     catch back up after heal;
//   - CrashRecover:   a replica is SIGKILLed and respawned with recovery;
//   - Figure1Wan:     no faults, but every link carries the paper's
//                     Figure 1 WAN latency floor — the optimistic abcast
//                     path must hold (fallback-free) at real RTTs.
// Plus loadgen accounting under injected loss: when the injector drops 10%
// of client datagrams, every released query is still accounted for
// (received + timed_out == sent) and duplicates never inflate QPS.
//
// Own binary: forks must never run under another test's threads.
#include "net/wirechaos.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/loadgen.hpp"
#include "net/resolver.hpp"
#include "net/wirefault.hpp"

namespace sdns::net {
namespace {

sim::Fault make_fault(sim::FaultKind kind, double at, double duration,
                      std::size_t a, std::size_t b = 0, double magnitude = 0) {
  sim::Fault f;
  f.kind = kind;
  f.at = at;
  f.duration = duration;
  f.a = a;
  f.b = b;
  f.magnitude = magnitude;
  return f;
}

class WireChaosTest : public ::testing::Test {
 protected:
  static WireChaosOptions base_options() {
    WireChaosOptions opt;
    opt.operations = 4;
    opt.time_scale = 0.5;
    opt.boot_budget = 2.5;
    return opt;
  }

  void run_and_expect_clean(const WireChaosOptions& opt) {
    WireCluster cluster(WireCluster::Options{});
    const core::ChaosReport report = run_wire_chaos(cluster, opt);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.ops_attempted, 0u);
  }
};

TEST_F(WireChaosTest, PartitionHealsAndLaggardConverges) {
  WireChaosOptions opt = base_options();
  opt.seed = 1001;
  sim::FaultSchedule schedule;
  schedule.faults.push_back(
      make_fault(sim::FaultKind::kPartition, 0.5, 2.0, /*a=*/2));
  opt.schedule = schedule;
  run_and_expect_clean(opt);
}

TEST_F(WireChaosTest, CrashIsKilledRespawnedAndRecovers) {
  WireChaosOptions opt = base_options();
  opt.seed = 1002;
  sim::FaultSchedule schedule;
  schedule.faults.push_back(
      make_fault(sim::FaultKind::kCrash, 0.5, 2.0, /*a=*/1));
  opt.schedule = schedule;
  run_and_expect_clean(opt);
}

TEST_F(WireChaosTest, Figure1WanLatencyKeepsOptimisticPath) {
  WireChaosOptions opt = base_options();
  opt.seed = 1003;
  opt.schedule = sim::FaultSchedule{};  // no faults: fallback-free is checked
  opt.wan = "internet-4";               // paper Figure 1 one-way latencies
  run_and_expect_clean(opt);
}

TEST_F(WireChaosTest, DurableCrashRecoverCampaignStaysClean) {
  // The seeded crash campaign, but over durable replicas: the SIGKILLed
  // process respawns onto its own WAL + snapshots and the PR-2 invariants
  // (including chain-digest agreement, which exercises the replayed
  // delivery log byte-for-byte) must stay green.
  WireChaosOptions opt = base_options();
  opt.seed = 1002;
  sim::FaultSchedule schedule;
  schedule.faults.push_back(
      make_fault(sim::FaultKind::kCrash, 0.5, 2.0, /*a=*/1));
  opt.schedule = schedule;

  WireCluster::Options copt;
  copt.durable = true;
  WireCluster cluster(copt);
  ASSERT_EQ(cluster.files().data_dirs.size(), cluster.n());
  const core::ChaosReport report = run_wire_chaos(cluster, opt);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.ops_attempted, 0u);
}

// ---- disk-first recovery over the wire -------------------------------------

StubResolver durable_resolver(const ClusterFiles& files, unsigned id,
                              double timeout, unsigned attempts) {
  StubResolver::Options opt;
  opt.servers = {files.dns_addrs[id]};
  opt.timeout = timeout;
  opt.attempts = attempts;
  return StubResolver(opt);
}

StubResolver::Result durable_add_record(const ClusterFiles& files, unsigned via,
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
  StubResolver r = durable_resolver(files, via, /*timeout=*/2.0, /*attempts=*/8);
  return r.send_update(std::move(update));
}

/// Poll `pred` against one replica's scrape until it holds or ~deadline
/// seconds elapse. Returns the last scrape either way.
std::map<std::string, std::int64_t> durable_poll(
    const ClusterFiles& files, unsigned id, double deadline,
    const std::function<bool(const std::map<std::string, std::int64_t>&)>&
        pred) {
  const double until = monotonic_now() + deadline;
  std::map<std::string, std::int64_t> last;
  for (;;) {
    last = scrape_counters(files.dns_addrs[id], /*timeout=*/0.8, /*attempts=*/2);
    if (pred(last)) return last;
    if (monotonic_now() >= until) return last;
    ::usleep(100000);
  }
}

TEST(DurableWireRecovery, SigkilledReplicaRebootsFromDiskWithoutTransfer) {
  // The acceptance scenario end to end on real sockets: a durable replica
  // is SIGKILLed, respawned over its data directory, and must come back via
  // disk-first recovery — store.recoveries_from_disk moves, while
  // replica.recoveries (full network transfers) stays zero because the
  // cursor-hint pass makes the peers ack "current" instead of shipping the
  // zone. Scraped through the same CH TXT endpoint CI uses.
  WireCluster::Options copt;
  copt.durable = true;
  WireCluster cluster(copt);
  const ClusterFiles& files = cluster.files();
  ASSERT_EQ(files.data_dirs.size(), cluster.n());

  std::vector<pid_t> pids(cluster.n(), -1);
  const WireReplicaConfig rc;
  for (unsigned i = 0; i < cluster.n(); ++i) {
    pids[i] = spawn_wire_replica(cluster, i, rc);
    ASSERT_GT(pids[i], 0);
  }
  const auto reap_all = [&] {
    for (unsigned i = 0; i < cluster.n(); ++i) {
      if (pids[i] > 0) ::kill(pids[i], SIGTERM);
    }
    for (unsigned i = 0; i < cluster.n(); ++i) {
      if (pids[i] > 0) ::waitpid(pids[i], nullptr, 0);
    }
  };

  // Every replica serving.
  for (unsigned i = 0; i < cluster.n(); ++i) {
    StubResolver probe = durable_resolver(files, i, 0.5, 30);
    const auto res =
        probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    if (!res.ok) {
      reap_all();
      FAIL() << "replica " << i << " never served: " << res.error;
    }
  }

  // One committed update, delivered (and therefore WAL-fsynced) everywhere.
  const auto upd =
      durable_add_record(files, 0, "durable.example.com.", "10.9.9.9");
  if (!upd.ok) {
    reap_all();
    FAIL() << "update failed: " << upd.error;
  }
  for (unsigned i = 0; i < cluster.n(); ++i) {
    const auto stats = durable_poll(files, i, 8.0, [](const auto& s) {
      const auto it = s.find("replica.updates");
      return it != s.end() && it->second >= 1;
    });
    const auto it = stats.find("replica.updates");
    if (it == stats.end() || it->second < 1) {
      reap_all();
      FAIL() << "replica " << i << " never executed the update";
    }
  }

  // SIGKILL replica 1 mid-life and respawn it over the same data dir.
  ::kill(pids[1], SIGKILL);
  ::waitpid(pids[1], nullptr, 0);
  WireReplicaConfig rc2;
  rc2.recover = true;  // crash-recover path: the respawn asks the peers too
  rc2.recover_delay = 0.3;
  pids[1] = spawn_wire_replica(cluster, 1, rc2);
  ASSERT_GT(pids[1], 0);

  const auto stats = durable_poll(files, 1, 10.0, [](const auto& s) {
    const auto disk = s.find("store.recoveries_from_disk");
    const auto rec = s.find("replica.recovering");
    const auto settled = s.find("replica.recovery_standdowns");
    return disk != s.end() && disk->second >= 1 &&  //
           rec != s.end() && rec->second == 0 &&    //
           settled != s.end() && settled->second >= 1;
  });
  EXPECT_GE(stats.at("store.recoveries_from_disk"), 1u);
  EXPECT_EQ(stats.at("replica.recovering"), 0u);
  // Disk-first means no full zone transfer: the recovery pass stood down.
  EXPECT_EQ(stats.at("replica.recoveries"), 0u);
  EXPECT_GE(stats.at("replica.recovery_standdowns"), 1u);

  // The pre-kill record is served from the respawned replica's own state.
  StubResolver r1 = durable_resolver(files, 1, 0.5, 20);
  const auto res =
      r1.query(dns::Name::parse("durable.example.com."), dns::RRType::kA);
  EXPECT_TRUE(res.ok) << res.error;
  if (res.ok) {
    EXPECT_FALSE(res.response.answers.empty());
  }

  // And the restored replica keeps executing: a post-restart update lands.
  const auto upd2 =
      durable_add_record(files, 0, "after-kill.example.com.", "10.9.9.10");
  EXPECT_TRUE(upd2.ok) << upd2.error;
  const auto after = durable_poll(files, 1, 8.0, [](const auto& s) {
    const auto it = s.find("replica.updates");
    return it != s.end() && it->second >= 2;
  });
  const auto it = after.find("replica.updates");
  EXPECT_TRUE(it != after.end() && it->second >= 2)
      << "post-restart update never reached the respawned replica";

  reap_all();
}

TEST(LoadgenUnderLoss, EveryQueryAccountedForAndNoDuplicateInflation) {
  // One replica, reads served locally; the injector drops 10% of datagrams
  // on the client->replica link (client pseudo-node is id n == 4).
  WireCluster cluster(WireCluster::Options{});

  sim::FaultSchedule schedule;
  schedule.faults.push_back(make_fault(sim::FaultKind::kLinkDrop, 0.0, 3600.0,
                                       /*a=*/4, /*b=*/0, /*magnitude=*/0.1));
  const std::string sched_path = cluster.dir() + "/loss_schedule.txt";
  const std::string text = sim::serialize(schedule);
  write_file(sched_path,
             util::BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                             text.size()));

  WireReplicaConfig rc;
  rc.schedule_path = sched_path;
  rc.fault_seed = 77;
  rc.fault_start = monotonic_now();  // active from boot
  const pid_t pid = spawn_wire_replica(cluster, 0, rc);
  ASSERT_GT(pid, 0);

  // Wait for the replica to serve (probes themselves face the 10% drop —
  // attempts ride through it).
  {
    StubResolver::Options ropt;
    ropt.servers = {cluster.files().dns_addrs[0]};
    ropt.timeout = 0.5;
    ropt.attempts = 30;
    StubResolver probe(ropt);
    const auto res =
        probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    ASSERT_TRUE(res.ok) << res.error;
  }

  EventLoop loop;
  Loadgen::Options lopt;
  lopt.servers = {cluster.files().dns_addrs[0]};
  lopt.name = dns::Name::parse("www.example.com.");
  lopt.rate = 2000;
  lopt.duration = 2.0;
  lopt.drain = 0.8;
  lopt.sockets = 2;  // exercise the per-socket accounting
  Loadgen gen(loop, lopt);
  gen.start();
  loop.run();
  const Loadgen::Report r = gen.report();

  ::kill(pid, SIGTERM);
  ::waitpid(pid, nullptr, 0);

  ASSERT_GT(r.sent, 0u);
  EXPECT_EQ(r.send_errors, 0u);
  // The accounting identity: every released query either completed or is
  // counted timed out — injected loss cannot leak queries.
  EXPECT_EQ(r.received + r.timed_out, r.sent);
  // Responses are deduplicated per socket; nothing here duplicates, so the
  // counter must stay zero (it only moves when the wire actually dupes).
  EXPECT_EQ(r.duplicate_responses, 0u);
  // ~10% of queries drop (seeded hash, not exact): the loss must be visible
  // but bounded.
  EXPECT_LT(r.received, r.sent);
  EXPECT_GT(static_cast<double>(r.received), 0.80 * static_cast<double>(r.sent));
  EXPECT_LT(static_cast<double>(r.received), 0.97 * static_cast<double>(r.sent));
}

}  // namespace
}  // namespace sdns::net
