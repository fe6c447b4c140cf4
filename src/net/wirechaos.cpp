#include "net/wirechaos.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "net/resolver.hpp"
#include "util/rng.hpp"

namespace sdns::net {
namespace {

/// Client workload stream — disjoint from the schedule stream and the core
/// chaos streams, so a seed names the same faults and Byzantine replicas in
/// sim and wire runs while each harness draws its own workload.
constexpr std::uint64_t kWireWorkloadStream = 0x317E'C4A0'0000'0001ULL;

void sleep_until_mono(double t) {
  for (;;) {
    const double d = t - monotonic_now();
    if (d <= 0) return;
    ::usleep(static_cast<useconds_t>(std::min(d, 0.05) * 1e6));
  }
}

StubResolver make_resolver(const ClusterFiles& files, unsigned id,
                           double timeout, unsigned attempts) {
  StubResolver::Options opt;
  opt.servers = {files.dns_addrs[id]};
  opt.timeout = timeout;
  opt.attempts = attempts;
  return StubResolver(opt);
}

/// One replica's stats.sdns. counters as integers; empty on failure (the
/// caller decides whether unreachable is a violation yet).
std::map<std::string, std::uint64_t> scrape_counters(const ClusterFiles& files,
                                                     unsigned id) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] :
       scrape_stats(files.dns_addrs[id], /*timeout=*/0.8, /*attempts=*/2)) {
    out[name] = std::strtoull(value.c_str(), nullptr, 10);
  }
  return out;
}

/// Remote recovery nudge: recover.sdns. CH TXT (fire-and-forget).
void nudge_recovery(const ClusterFiles& files, unsigned id) {
  StubResolver r = make_resolver(files, id, /*timeout=*/0.5, /*attempts=*/1);
  (void)r.query(dns::Name::parse("recover.sdns."), dns::RRType::kTXT,
                dns::RRClass::kCH);
}

StubResolver::Result add_record(const ClusterFiles& files, unsigned via,
                                const std::string& name,
                                const std::string& addr, double timeout,
                                unsigned attempts) {
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
  StubResolver r = make_resolver(files, via, timeout, attempts);
  return r.send_update(std::move(update));
}

}  // namespace

double monotonic_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

WireCluster::WireCluster(Options options) : opt_(options) {
  char tmpl[] = "/tmp/sdns_wire_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) throw NetError("mkdtemp failed");
  dir_ = tmpl;

  ClusterOptions copt;
  copt.n = opt_.n;
  copt.t = opt_.t;
  copt.shards = opt_.shards;
  copt.seed = opt_.key_seed;
  copt.durable = opt_.durable;
  copt.require_tsig = false;  // chaos workloads update without TSIG
  // Pid-spread ports in [52000, 64480) — disjoint from the cluster_test
  // range [20000, 52000) so parallel ctest runs never collide. The fixed
  // 8-port dns/mesh split supports n <= 8 (internet-7 campaigns fit).
  const std::uint16_t base =
      static_cast<std::uint16_t>(52000 + (::getpid() % 780) * 16);
  copt.dns_base_port = base;
  copt.mesh_base_port = static_cast<std::uint16_t>(base + 8);
  files_ = generate_cluster(dir_, copt);
}

WireCluster::~WireCluster() {
  const std::string cleanup = "rm -rf '" + dir_ + "'";
  (void)std::system(cleanup.c_str());
}

void WireCluster::reset_data_dirs() const {
  for (const std::string& d : files_.data_dirs) {
    const std::string cleanup = "rm -rf '" + d + "'";
    (void)std::system(cleanup.c_str());
  }
}

pid_t spawn_wire_replica(const WireCluster& cluster, unsigned id,
                         const WireReplicaConfig& rc) {
  const pid_t pid = ::fork();
  if (pid < 0) throw NetError("fork failed");
  if (pid == 0) {
    try {
      RuntimeConfig config = RuntimeConfig::load(cluster.files().configs[id]);
      config.fault_schedule = rc.schedule_path;
      config.fault_seed = rc.fault_seed;
      config.fault_time_scale = rc.time_scale;
      config.fault_start = rc.fault_start;
      config.fault_wan = rc.wan;
      config.corruption = rc.corruption;
      config.recover = rc.recover;
      config.recover_delay = rc.recover_delay;
      config.complaint_timeout = rc.complaint_timeout;
      config.stats_interval = 0;
      EventLoop loop;
      ReplicaRuntime runtime(loop, std::move(config));
      runtime.start();
      loop.run();
      std::_Exit(0);
    } catch (...) {
      std::_Exit(1);
    }
  }
  return pid;
}

core::ChaosReport run_wire_chaos(const WireCluster& cluster,
                                 const WireChaosOptions& opt) {
  const unsigned n = cluster.n();
  const ClusterFiles& files = cluster.files();
  // Durable clusters: every seed starts from empty disks (respawns within
  // THIS run then reuse whatever the killed replica had persisted).
  cluster.reset_data_dirs();

  core::ChaosReport report;
  report.seed = opt.seed;
  report.n = n;
  report.t = cluster.t();

  // ---- derive the scenario from the seed (or use the pinned replay) ----
  sim::FaultSchedule schedule;
  if (opt.schedule) {
    schedule = *opt.schedule;
  } else {
    sim::ScheduleOptions sopt;
    sopt.nodes = n + 1;  // replicas 0..n-1 plus the client pseudo-node n
    sopt.max_faults = opt.max_faults;
    sopt.window = opt.fault_window;
    sopt.max_duration = std::max(0.5, opt.fault_window * 0.6);
    sopt.isolation_bound = n;  // the client never crashes
    sopt.duplicates = true;    // wire-only fault kind
    schedule = sim::random_schedule(opt.seed, sopt);
  }
  report.schedule = schedule;
  report.corruption = opt.corruption
                          ? *opt.corruption
                          : core::draw_byzantine(opt.seed, n, opt.byzantine);

  std::vector<unsigned> honest;
  for (unsigned i = 0; i < n; ++i) {
    if (report.corruption.find(i) == report.corruption.end()) honest.push_back(i);
  }

  const std::string sched_path = cluster.dir() + "/schedule.txt";
  {
    const std::string text = sim::serialize(schedule);
    write_file(sched_path, util::BytesView(
                               reinterpret_cast<const std::uint8_t*>(text.data()),
                               text.size()));
  }

  // Schedule time 0 lands boot_budget wall-seconds from now; CLOCK_MONOTONIC
  // is machine-wide, so every forked replica (including respawns) agrees.
  const double fault_start = monotonic_now() + opt.boot_budget;
  const double scale = opt.time_scale;

  WireReplicaConfig base_rc;
  base_rc.schedule_path = schedule.faults.empty() ? "" : sched_path;
  base_rc.fault_seed = opt.seed;
  base_rc.time_scale = scale;
  base_rc.fault_start = fault_start;
  base_rc.wan = opt.wan;

  std::vector<pid_t> pids(n, -1);
  const auto spawn = [&](unsigned id, bool recover) {
    WireReplicaConfig rc = base_rc;
    rc.recover = recover;
    const auto it = report.corruption.find(id);
    if (it != report.corruption.end()) rc.corruption = it->second;
    pids[id] = spawn_wire_replica(cluster, id, rc);
  };
  const auto kill_one = [&](unsigned id) {
    if (pids[id] <= 0) return;
    ::kill(pids[id], SIGKILL);
    ::waitpid(pids[id], nullptr, 0);
    pids[id] = -1;
  };
  const auto teardown = [&] {
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (pid_t& pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  };

  for (unsigned i = 0; i < n; ++i) spawn(i, /*recover=*/false);

  // ---- boot: every honest replica must answer before the faults start ----
  for (const unsigned id : honest) {
    bool up = false;
    while (monotonic_now() < fault_start - 0.1) {
      StubResolver probe = make_resolver(files, id, /*timeout=*/0.2, 1);
      if (probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA).ok) {
        up = true;
        break;
      }
    }
    if (!up) {
      report.violations.push_back(
          {"liveness", "replica " + std::to_string(id) + " never booted"});
      teardown();
      return report;
    }
  }

  // ---- the chaos phase: a merged timeline of real crash kills/respawns
  //      (the injector's kCrash drop is only the message-level shadow) and
  //      seeded client workload ops ----
  enum class Ev { kKill, kRespawn, kOp };
  struct Event {
    double at = 0;  // absolute CLOCK_MONOTONIC seconds
    Ev what = Ev::kOp;
    unsigned node = 0;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < schedule.faults.size(); ++i) {
    const sim::Fault& f = schedule.faults[i];
    if (f.kind != sim::FaultKind::kCrash || f.a >= n) continue;
    events.push_back({fault_start + f.at * scale, Ev::kKill,
                      static_cast<unsigned>(f.a)});
    // Respawn only when no other crash fault still covers this node.
    bool covered = false;
    for (std::size_t j = 0; j < schedule.faults.size(); ++j) {
      if (j == i) continue;
      const sim::Fault& g = schedule.faults[j];
      if (g.kind == sim::FaultKind::kCrash && g.a == f.a &&
          g.at <= f.heals_at() && f.heals_at() < g.heals_at()) {
        covered = true;
      }
    }
    if (!covered) {
      events.push_back({fault_start + f.heals_at() * scale, Ev::kRespawn,
                        static_cast<unsigned>(f.a)});
    }
  }
  const double horizon = std::max(schedule.horizon(), 1.0);
  const double wall_end = fault_start + horizon * scale;
  for (std::size_t i = 0; i < opt.operations; ++i) {
    const double at = fault_start + (static_cast<double>(i) + 0.5) *
                                        (wall_end - fault_start) /
                                        static_cast<double>(opt.operations);
    events.push_back({at, Ev::kOp, 0});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) { return x.at < y.at; });

  util::Rng workload(opt.seed, kWireWorkloadStream);
  std::vector<std::string> names = {"www.example.com."};
  const std::string tag = "s" + std::to_string(opt.seed);
  for (const Event& ev : events) {
    sleep_until_mono(ev.at);
    switch (ev.what) {
      case Ev::kKill:
        kill_one(ev.node);
        break;
      case Ev::kRespawn:
        if (pids[ev.node] < 0) spawn(ev.node, /*recover=*/true);
        break;
      case Ev::kOp: {
        ++report.ops_attempted;
        const unsigned via = honest[workload.below(honest.size())];
        if (workload.below(2) == 0) {
          StubResolver r = make_resolver(files, via, /*timeout=*/0.35, 1);
          const auto& name = names[workload.below(names.size())];
          const auto res = r.query(dns::Name::parse(name), dns::RRType::kA);
          if (res.ok) ++report.ops_ok;
        } else {
          const std::string name =
              "w" + std::to_string(report.ops_attempted) + "-" + tag +
              ".example.com.";
          const auto res = add_record(files, via, name, "10.1.2.3",
                                      /*timeout=*/0.35, /*attempts=*/1);
          if (res.ok && res.response.rcode == dns::Rcode::kNoError) {
            ++report.ops_ok;
            names.push_back(name);
          }
        }
        break;
      }
    }
  }

  // ---- heal + settle, then drive convergence: scrape protocol gauges and
  //      nudge laggards into recovery (the wire form of the sim adversary's
  //      on_heal hook) until cursors, digests and recovery flags agree ----
  sleep_until_mono(wall_end + std::max(0.8, 2.0 * scale));
  const char* kDelivered = "abcast.delivered";
  const char* kDeliveryDigest = "abcast.delivery_digest";
  const char* kZoneDigest = "replica.zone_digest";
  const char* kRecovering = "replica.recovering";
  std::map<unsigned, std::map<std::string, std::uint64_t>> stats;
  for (int round = 0; round < 10; ++round) {
    stats.clear();
    bool complete = true;
    for (const unsigned id : honest) {
      auto s = scrape_counters(files, id);
      if (s.empty()) complete = false;
      stats[id] = std::move(s);
    }
    std::set<unsigned> lagging;
    if (complete) {
      std::uint64_t front = 0;
      for (const unsigned id : honest) {
        front = std::max(front, stats[id][kDelivered]);
      }
      const unsigned leader = *std::max_element(
          honest.begin(), honest.end(), [&](unsigned x, unsigned y) {
            return stats[x][kDelivered] < stats[y][kDelivered];
          });
      for (const unsigned id : honest) {
        if (stats[id][kDelivered] < front || stats[id][kRecovering] != 0 ||
            stats[id][kZoneDigest] != stats[leader][kZoneDigest]) {
          lagging.insert(id);
        }
      }
      if (lagging.empty()) break;
    }
    for (const unsigned id : honest) {
      if (!complete || lagging.count(id)) nudge_recovery(files, id);
    }
    ::usleep(800 * 1000);
  }

  // ---- the PR-2 liveness probes, over the wire ----
  for (const unsigned id : honest) {
    StubResolver r = make_resolver(files, id, /*timeout=*/0.6, /*attempts=*/3);
    const auto res =
        r.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
    if (!res.ok || res.response.rcode != dns::Rcode::kNoError) {
      report.violations.push_back(
          {"liveness",
           "probe query failed on replica " + std::to_string(id) +
               (res.ok ? "" : ": " + res.error)});
    }
  }
  const std::string probe_name = "probe-" + tag + ".example.com.";
  bool update_ok = false;
  for (const unsigned via : honest) {
    const auto res = add_record(files, via, probe_name, "10.7.7.7",
                                /*timeout=*/2.0, /*attempts=*/2);
    if (res.ok && res.response.rcode == dns::Rcode::kNoError) {
      update_ok = true;
      break;
    }
  }
  if (!update_ok) {
    report.violations.push_back(
        {"liveness", "probe update failed via every honest replica"});
  } else {
    // The update must become visible on EVERY honest replica.
    for (const unsigned id : honest) {
      StubResolver r = make_resolver(files, id, /*timeout=*/0.5, 1);
      bool visible = false;
      const double deadline = monotonic_now() + 10.0;
      while (monotonic_now() < deadline) {
        const auto res = r.query(dns::Name::parse(probe_name), dns::RRType::kA);
        if (res.ok && res.response.rcode == dns::Rcode::kNoError &&
            !res.response.answers.empty()) {
          visible = true;
          break;
        }
        ::usleep(200 * 1000);
      }
      if (!visible) {
        report.violations.push_back(
            {"zone-convergence", "probe update never visible on replica " +
                                     std::to_string(id)});
      }
    }
  }

  // ---- final scrape: the safety invariants, from protocol gauges. The
  //      probe update lands asynchronously (abcast delivery, then threshold
  //      re-sign, then zone swap), so one scrape can legitimately catch a
  //      replica mid-apply: the check retries until the cluster is stable
  //      and only a PERSISTENT mismatch is a violation ----
  const auto safety_check = [&]() -> std::vector<core::ChaosViolation> {
    std::vector<core::ChaosViolation> out;
    stats.clear();
    for (const unsigned id : honest) {
      for (int attempt = 0; attempt < 3 && stats[id].empty(); ++attempt) {
        stats[id] = scrape_counters(files, id);
      }
      if (stats[id].empty()) {
        out.push_back(
            {"liveness", "stats scrape failed on replica " + std::to_string(id)});
      }
    }
    for (const unsigned id : honest) {
      if (stats[id].empty()) return out;
    }
    if (honest.empty()) return out;
    const unsigned first = honest.front();
    bool cursors_equal = true;
    for (const unsigned id : honest) {
      if (stats[id][kRecovering] != 0) {
        out.push_back({"recovery", "replica " + std::to_string(id) +
                                       " still in state transfer"});
      }
      if (stats[id][kDelivered] != stats[first][kDelivered]) cursors_equal = false;
      if (stats[id][kZoneDigest] != stats[first][kZoneDigest]) {
        out.push_back(
            {"zone-convergence",
             "zone digest mismatch: replica " + std::to_string(id) + " vs " +
                 std::to_string(first)});
      }
    }
    if (!cursors_equal) {
      out.push_back({"zone-convergence",
                     "delivery cursors diverged across honest replicas"});
    } else {
      // Agreement: at an equal cursor, replicas whose logs span the same
      // sequences (equal floor — snapshot recovery truncates the log to a
      // suffix, a partition leaves a hole before it) must chain to the same
      // digest. This is the scrapeable form of the simulator's
      // entry-by-entry intersection comparison.
      std::map<std::uint64_t, std::pair<unsigned, std::uint64_t>> by_floor;
      for (const unsigned id : honest) {
        const std::uint64_t floor = stats[id]["abcast.digest_floor"];
        const std::uint64_t digest = stats[id][kDeliveryDigest];
        const auto [it, inserted] =
            by_floor.emplace(floor, std::make_pair(id, digest));
        if (!inserted && it->second.second != digest) {
          out.push_back({"abcast-agreement",
                         "delivery-log digest mismatch at equal cursor: replica " +
                             std::to_string(id) + " vs " +
                             std::to_string(it->second.first)});
          break;
        }
      }
    }
    // Fault-free runs must never leave the optimistic abcast path (the WAN
    // latency floor is benign load, not a fault).
    if (schedule.faults.empty() && report.corruption.empty()) {
      for (const unsigned id : honest) {
        if (stats[id]["abcast.fallback"] != 0) {
          out.push_back({"fallback-free",
                         "replica " + std::to_string(id) +
                             " fell back with no faults injected"});
        }
        if (stats[id]["dns.zone.malformed_sigs_dropped"] != 0) {
          out.push_back({"malformed-sig-free",
                         "replica " + std::to_string(id) +
                             " dropped malformed SIG rdata with no faults injected"});
        }
      }
    }
    return out;
  };
  std::vector<core::ChaosViolation> safety = safety_check();
  for (int attempt = 0; attempt < 8 && !safety.empty(); ++attempt) {
    ::usleep(500 * 1000);
    safety = safety_check();
  }
  for (auto& v : safety) report.violations.push_back(std::move(v));

  // ---- packet-cache staleness probe (ShardedClusterTest no-stale pattern):
  //      cache a negative answer, update, and assert no post-ack query is
  //      answered from the pre-update cache ----
  if (opt.no_stale_probe && report.violations.empty() && !honest.empty()) {
    const unsigned via = honest.front();
    const std::string fresh = "fresh-" + tag + ".example.com.";
    for (int i = 0; i < 3; ++i) {
      StubResolver r = make_resolver(files, via, /*timeout=*/0.5, 2);
      (void)r.query(dns::Name::parse(fresh), dns::RRType::kA);
    }
    const auto upd = add_record(files, via, fresh, "10.9.9.9",
                                /*timeout=*/2.0, /*attempts=*/2);
    if (!upd.ok || upd.response.rcode != dns::Rcode::kNoError) {
      report.violations.push_back({"liveness", "no-stale probe update failed"});
    } else {
      for (int i = 0; i < 6; ++i) {
        StubResolver r = make_resolver(files, via, /*timeout=*/0.5, 2);
        const auto res = r.query(dns::Name::parse(fresh), dns::RRType::kA);
        if (res.ok && res.response.rcode == dns::Rcode::kNxDomain) {
          report.violations.push_back(
              {"cache-stale",
               "stale cached NXDOMAIN served after the update was acknowledged"});
          break;
        }
        ::usleep(100 * 1000);
      }
    }
  }

  teardown();
  return report;
}

}  // namespace sdns::net
