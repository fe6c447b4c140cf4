#include "core/chaos.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "dns/dnssec.hpp"

namespace sdns::core {

namespace {

// Rng stream ids for the harness's own decisions; disjoint from the streams
// ReplicatedService hands its nodes.
constexpr std::uint64_t kByzantineStream = 0xC4A0'5000'0000'0001ULL;
constexpr std::uint64_t kWorkloadStream = 0xC4A0'5000'0000'0002ULL;

constexpr const char* kChaosZone = R"(
@     IN SOA ns1.corp.example. hostmaster.corp.example. 100 7200 1200 604800 600
@     IN NS  ns1.corp.example.
@     IN NS  ns2.corp.example.
ns1   IN A   192.0.2.53
ns2   IN A   192.0.2.54
www   IN A   192.0.2.80
)";

const CorruptionMode kByzantineModes[] = {
    CorruptionMode::kFlipShares,   CorruptionMode::kMute,
    CorruptionMode::kStaleReplay,  CorruptionMode::kEquivocate,
    CorruptionMode::kGarbagePayload, CorruptionMode::kGarbageShares,
};

}  // namespace

std::map<unsigned, CorruptionMode> draw_byzantine(std::uint64_t seed, unsigned n,
                                                  unsigned count) {
  std::map<unsigned, CorruptionMode> out;
  util::Rng rng(seed, kByzantineStream);
  count = std::min(count, n);
  while (out.size() < count) {
    const unsigned id = static_cast<unsigned>(rng.below(n));
    if (out.count(id)) continue;
    out[id] = kByzantineModes[rng.below(std::size(kByzantineModes))];
  }
  return out;
}

std::string ChaosReport::to_string() const {
  std::ostringstream os;
  os << "chaos seed " << seed << " (n=" << n << ", t=" << t << ")\n";
  os << "byzantine replicas:\n";
  if (corruption.empty()) {
    os << "  (none)\n";
  } else {
    for (const auto& [id, mode] : corruption) {
      os << "  replica " << id << ": " << core::to_string(mode) << "\n";
    }
  }
  os << "fault schedule:\n" << schedule.to_string();
  os << "workload: " << ops_ok << "/" << ops_attempted << " ops succeeded\n";
  if (violations.empty()) {
    os << "invariants: all hold\n";
  } else {
    os << "violations:\n";
    for (const ChaosViolation& v : violations) {
      os << "  " << v.invariant << ": " << v.detail << "\n";
    }
  }
  return os.str();
}

std::vector<ChaosViolation> check_observations(const std::vector<ReplicaObservation>& obs,
                                               unsigned t, bool fault_free) {
  std::vector<ChaosViolation> out;
  std::vector<const ReplicaObservation*> honest;
  for (const ReplicaObservation& o : obs) {
    if (!o.byzantine) honest.push_back(&o);
  }
  if (honest.empty()) return out;

  // Atomic broadcast safety: no two honest replicas may have delivered
  // different payloads at the same sequence number, ever.
  for (std::size_t i = 0; i < honest.size(); ++i) {
    for (std::size_t j = i + 1; j < honest.size(); ++j) {
      for (const auto& [cursor, digest] : honest[i]->delivery_log) {
        auto it = honest[j]->delivery_log.find(cursor);
        if (it != honest[j]->delivery_log.end() && it->second != digest) {
          std::ostringstream os;
          os << "replicas " << honest[i]->id << " and " << honest[j]->id
             << " delivered different payloads at sequence " << cursor;
          out.push_back({"abcast-agreement", os.str()});
        }
      }
    }
  }

  // No honest replica may be stuck in state transfer after the run settles.
  for (const ReplicaObservation* o : honest) {
    if (o->recovering) {
      std::ostringstream os;
      os << "replica " << o->id << " still in recovery after all faults healed";
      out.push_back({"recovery", os.str()});
    }
  }

  // Convergence: every honest replica at the same cursor with the same zone.
  const ReplicaObservation* front = *std::max_element(
      honest.begin(), honest.end(),
      [](const ReplicaObservation* a, const ReplicaObservation* b) {
        return a->delivered < b->delivered;
      });
  for (const ReplicaObservation* o : honest) {
    if (o->delivered != front->delivered) {
      std::ostringstream os;
      os << "replica " << o->id << " stopped at delivery cursor " << o->delivered
         << " while replica " << front->id << " reached " << front->delivered;
      out.push_back({"zone-convergence", os.str()});
    } else if (o->zone_wire != front->zone_wire) {
      std::ostringstream os;
      os << "replicas " << o->id << " and " << front->id
         << " diverge at the same delivery cursor " << o->delivered
         << " (t=" << t << ")";
      out.push_back({"zone-convergence", os.str()});
    }
  }

  // Threshold-signature validity: the signed zone must verify everywhere.
  for (const ReplicaObservation* o : honest) {
    if (o->zone_signed && !o->zone_verifies) {
      std::ostringstream os;
      os << "replica " << o->id << "'s zone fails DNSSEC verification";
      out.push_back({"zone-signature", os.str()});
    }
  }

  // Counter-based introspection: under a fault-free schedule the optimistic
  // path must carry everything — a fallback (epoch change) means complaint
  // timers fired with a correct leader, which safety checks cannot see.
  if (fault_free) {
    for (const ReplicaObservation* o : honest) {
      if (o->fallbacks != 0) {
        std::ostringstream os;
        os << "replica " << o->id << " entered abcast fallback " << o->fallbacks
           << " time(s) in a fault-free run (t=" << t << ")";
        out.push_back({"fallback-free", os.str()});
      }
      if (o->malformed_sigs != 0) {
        std::ostringstream os;
        os << "replica " << o->id << " dropped " << o->malformed_sigs
           << " malformed SIG rdata(s) in a fault-free run";
        out.push_back({"malformed-sig-free", os.str()});
      }
    }
  }
  return out;
}

ChaosReport run_chaos(const ChaosConfig& cfg) {
  ChaosReport report;
  report.seed = cfg.seed;

  ServiceOptions sopt;
  sopt.topology = cfg.topology;
  sopt.sig_protocol = cfg.sig_protocol;
  sopt.seed = cfg.seed;
  sopt.client_timeout = 4.0;
  sopt.complaint_timeout = 3.0;
  const unsigned n = static_cast<unsigned>(sim::make_testbed(cfg.topology).replica_count());
  report.corruption =
      cfg.corruption ? *cfg.corruption : draw_byzantine(cfg.seed, n, cfg.byzantine);
  sopt.corruption_by_replica = report.corruption;

  const dns::Name origin = dns::Name::parse("corp.example.");
  ReplicatedService svc(sopt, origin, kChaosZone);
  report.n = svc.n();
  report.t = svc.t();

  // Fault schedule: derived from the seed unless the caller replays one.
  if (cfg.schedule) {
    report.schedule = *cfg.schedule;
  } else {
    sim::ScheduleOptions fopt;
    fopt.nodes = svc.net().size();  // link faults may also hit client links
    fopt.max_faults = cfg.max_faults;
    fopt.window = cfg.fault_window;
    fopt.isolation_bound = svc.n();  // never crash/partition the client
    report.schedule = sim::random_schedule(cfg.seed, fopt);
  }

  sim::Adversary adversary(svc.net());
  adversary.on_heal = [&](sim::NodeId node) {
    // A healed replica lost every message sent while it was cut off; pull a
    // verified snapshot from the others (§4.3 repair).
    if (node < svc.n()) svc.replica(static_cast<unsigned>(node)).start_recovery();
  };
  adversary.install(report.schedule);

  // ---- seeded workload under fire ----
  util::Rng wrng(cfg.seed, kWorkloadStream);
  std::vector<dns::Name> added;
  for (std::size_t i = 0; i < cfg.operations; ++i) {
    ++report.ops_attempted;
    const std::uint64_t pick = wrng.below(3);
    if (pick == 0 || (pick == 2 && added.empty())) {
      auto r = svc.query(dns::Name::parse("www.corp.example."), dns::RRType::kA);
      if (r.ok && r.response.rcode == dns::Rcode::kNoError) ++report.ops_ok;
    } else if (pick == 1) {
      std::ostringstream host;
      host << "h" << i << ".corp.example.";
      std::ostringstream addr;
      addr << "10.1." << (i % 250) << "." << (1 + wrng.below(250));
      auto r = svc.add_record(dns::Name::parse(host.str()), addr.str());
      if (r.ok && r.response.rcode == dns::Rcode::kNoError) {
        ++report.ops_ok;
        added.push_back(dns::Name::parse(host.str()));
      }
    } else {
      auto r = svc.delete_record(added.back());
      added.pop_back();
      if (r.ok && r.response.rcode == dns::Rcode::kNoError) ++report.ops_ok;
    }
  }

  // ---- quiesce: run past the fault horizon, then give the protocols a
  // bounded window to converge. We deliberately do NOT drain the event queue
  // (settle): a replica stuck complaining into a superseded epoch keeps
  // re-arming its timer, which is itself a liveness bug the probes below
  // will surface — an unbounded drain would just spin on it.
  auto run_for = [&svc](double seconds) {
    svc.sim().run_until(svc.sim().now() + seconds);
  };
  svc.sim().run_until(report.schedule.horizon() + 1.0);
  run_for(15.0);

  // Replicas that were cut off may have come back to a quorum too busy to
  // serve snapshots, or be lagging without knowing it; retry state transfer
  // until everyone caught up (bounded rounds — failure is then a violation).
  for (int round = 0; round < 3; ++round) {
    std::uint64_t front = 0;
    for (unsigned i = 0; i < svc.n(); ++i) {
      if (report.corruption.count(i)) continue;
      front = std::max(front, svc.replica(i).abcast().delivered_count());
    }
    bool any = false;
    for (unsigned i = 0; i < svc.n(); ++i) {
      if (report.corruption.count(i)) continue;
      ReplicaNode& r = svc.replica(i);
      if (r.recovering() || r.abcast().delivered_count() < front) {
        r.start_recovery();
        any = true;
      }
    }
    if (!any) break;
    run_for(10.0);
  }

  // ---- bounded liveness probes on the healed network ----
  auto probe_q = svc.query(dns::Name::parse("www.corp.example."), dns::RRType::kA);
  if (!probe_q.ok || probe_q.response.rcode != dns::Rcode::kNoError) {
    report.violations.push_back(
        {"liveness", "probe query failed after all faults healed"});
  }
  auto probe_u = svc.add_record(dns::Name::parse("probe.corp.example."), "10.9.9.9");
  if (!probe_u.ok || probe_u.response.rcode != dns::Rcode::kNoError) {
    report.violations.push_back(
        {"liveness", "probe update failed after all faults healed"});
  }
  run_for(15.0);
  // The probes themselves advance the cursor; give stragglers one last pull.
  for (unsigned i = 0; i < svc.n(); ++i) {
    if (report.corruption.count(i)) continue;
    if (svc.replica(i).recovering()) {
      svc.replica(i).start_recovery();
    }
  }
  run_for(10.0);

  // ---- extract observations and check the global invariants ----
  std::vector<ReplicaObservation> obs;
  for (unsigned i = 0; i < svc.n(); ++i) {
    ReplicaObservation o;
    o.id = i;
    o.byzantine = report.corruption.count(i) != 0;
    o.recovering = svc.replica(i).recovering();
    o.delivered = svc.replica(i).abcast().delivered_count();
    o.fallbacks = svc.replica(i).abcast().epoch_changes();
    o.malformed_sigs = svc.replica(i).server().zone().malformed_sigs_dropped();
    o.delivery_log = svc.replica(i).delivery_log();
    o.zone_wire = svc.replica(i).server().zone().to_wire();
    o.zone_signed = svc.replica(i).server().zone_is_signed();
    o.zone_verifies =
        o.zone_signed &&
        dns::verify_zone(svc.replica(i).server().zone(), svc.zone_public_key()).ok;
    obs.push_back(std::move(o));
  }
  const bool fault_free =
      report.schedule.faults.empty() && report.corruption.empty();
  auto violations = check_observations(obs, svc.t(), fault_free);
  report.violations.insert(report.violations.end(), violations.begin(),
                           violations.end());
  return report;
}

ChaosReport minimize_failure(ChaosConfig cfg) {
  ChaosReport failing = run_chaos(cfg);
  if (failing.ok()) return failing;
  cfg.corruption = failing.corruption;  // pin; only the schedule shrinks
  sim::FaultSchedule current = failing.schedule;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = current.faults.size(); i-- > 0;) {
      sim::FaultSchedule candidate = current;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      cfg.schedule = candidate;
      ChaosReport r = run_chaos(cfg);
      if (!r.ok()) {
        current = candidate;
        failing = r;
        shrunk = true;
      }
    }
  }
  return failing;
}

CampaignResult run_campaign(const ChaosConfig& base, std::uint64_t first_seed,
                            std::size_t count,
                            const std::function<void(const ChaosReport&)>& on_failure) {
  CampaignResult result;
  for (std::size_t i = 0; i < count; ++i) {
    ChaosConfig cfg = base;
    cfg.seed = first_seed + i;
    ChaosReport report = run_chaos(cfg);
    ++result.runs;
    if (!report.ok()) {
      if (on_failure) on_failure(report);
      result.failures.push_back(std::move(report));
    }
  }
  return result;
}

}  // namespace sdns::core
