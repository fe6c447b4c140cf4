// Standalone chaos-campaign driver.
//
//   chaos_campaign --seeds 200                 200-seed campaign, n=4
//   chaos_campaign --topology internet7 --byzantine 2 --seeds 200
//   chaos_campaign --seed 1234567              replay one seed (with report)
//   chaos_campaign --seed 1234567 --minimize   replay and shrink the schedule
//   chaos_campaign --self-test                 corrupt replicas beyond the
//                                              fault bound and demand a
//                                              reported, replayable violation
//
// --wire runs the same seeded scenarios against REAL forked replica
// processes on real sockets (net::run_wire_chaos): identical schedule and
// Byzantine derivation per seed, faults enforced by the deterministic
// net::FaultInjector plus real SIGKILL/respawn, invariants scraped over the
// stats.sdns. CH TXT endpoint. Nightly CI runs the same date seed through
// both modes and diffs the outcomes. Wire runs take wall-clock seconds per
// seed; --time-scale compresses the schedule. --minimize is sim-only (the
// shrink loop would take hours of wall time on the wire).
//
// Exit status: 0 when the campaign is clean (or the self-test failed as it
// must), 1 on any unexpected violation — with each failure's seed, Byzantine
// assignment and minimized fault schedule printed for replay.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <set>
#include <string>

#include "core/chaos.hpp"
#include "net/wirechaos.hpp"

using namespace sdns;

namespace {

struct Args {
  std::uint64_t first_seed = 1;
  std::size_t seeds = 50;
  bool single = false;     ///< --seed given: run exactly one scenario
  bool minimize = false;
  bool self_test = false;
  bool wire = false;       ///< real sockets + forked replicas, not the sim
  double time_scale = 0.5;  ///< wire: wall seconds per schedule second
  unsigned shards = 1;      ///< wire: frontend shards per replica
  bool explicit_max_faults = false;
  core::ChaosConfig cfg;
};

void usage() {
  std::cout << "usage: chaos_campaign [--seeds N] [--seed S] [--first-seed S]\n"
               "                      [--topology lan4|internet4|internet7]\n"
               "                      [--byzantine K] [--ops N] [--max-faults N]\n"
               "                      [--minimize] [--self-test]\n"
               "                      [--wire] [--time-scale X] [--shards N]\n";
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--seeds") {
      const char* v = next();
      if (!v) return false;
      args.seeds = std::stoull(v);
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return false;
      args.first_seed = std::stoull(v);
      args.single = true;
    } else if (a == "--first-seed") {
      const char* v = next();
      if (!v) return false;
      args.first_seed = std::stoull(v);
    } else if (a == "--topology") {
      const char* v = next();
      if (!v) return false;
      if (std::strcmp(v, "lan4") == 0) {
        args.cfg.topology = sim::Topology::kLan4;
      } else if (std::strcmp(v, "internet4") == 0) {
        args.cfg.topology = sim::Topology::kInternet4;
      } else if (std::strcmp(v, "internet7") == 0) {
        args.cfg.topology = sim::Topology::kInternet7;
      } else {
        std::cerr << "unknown topology " << v << "\n";
        return false;
      }
    } else if (a == "--byzantine") {
      const char* v = next();
      if (!v) return false;
      args.cfg.byzantine = static_cast<unsigned>(std::stoul(v));
    } else if (a == "--ops") {
      const char* v = next();
      if (!v) return false;
      args.cfg.operations = std::stoull(v);
    } else if (a == "--max-faults") {
      const char* v = next();
      if (!v) return false;
      args.cfg.max_faults = std::stoull(v);
      args.explicit_max_faults = true;
    } else if (a == "--wire") {
      args.wire = true;
    } else if (a == "--time-scale") {
      const char* v = next();
      if (!v) return false;
      args.time_scale = std::stod(v);
      if (args.time_scale <= 0) return false;
    } else if (a == "--shards") {
      const char* v = next();
      if (!v) return false;
      args.shards = static_cast<unsigned>(std::stoul(v));
    } else if (a == "--minimize") {
      args.minimize = true;
    } else if (a == "--self-test") {
      args.self_test = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "unknown argument " << a << "\n";
      usage();
      return false;
    }
  }
  return true;
}

int self_test(Args args) {
  // Corrupt replicas beyond the design's tolerance and demand that the
  // harness notices and that the failure replays from its seed. Muting t+1
  // of n signers is NOT enough: threshold signing needs only t+1 shares, so
  // it tolerates up to n-t-1 missing ones. Mute n-t replicas, leaving t
  // honest shares — below the assembly threshold — so every update wedges
  // and the liveness checker must fire.
  args.cfg.seed = args.first_seed;
  core::ChaosReport probe = core::run_chaos(args.cfg);
  std::map<unsigned, core::CorruptionMode> corrupt;
  for (unsigned i = 0; i < probe.n - probe.t; ++i) {
    corrupt[i] = core::CorruptionMode::kMute;
  }
  args.cfg.corruption = corrupt;
  core::ChaosReport first = core::run_chaos(args.cfg);
  if (first.ok()) {
    std::cerr << "self-test FAILED: " << first.n - first.t
              << " mute replicas produced no violation\n"
              << first.to_string();
    return 1;
  }
  core::ChaosReport replay = core::run_chaos(args.cfg);
  if (replay.to_string() != first.to_string()) {
    std::cerr << "self-test FAILED: replay of seed " << args.cfg.seed
              << " produced a different report\n";
    return 1;
  }
  std::cout << "self-test ok: violation detected and replayed\n"
            << first.to_string();
  return 0;
}

// ---- wire mode: the same seeds, against forked replicas on real sockets ----

/// Map the sim topology flag onto a wire cluster shape: the replica count,
/// fault threshold, and (for the internet topologies) the Figure-1 per-link
/// latency floor the injector applies.
void wire_shape(const Args& args, net::WireCluster::Options& cluster,
                net::WireChaosOptions& w) {
  switch (args.cfg.topology) {
    case sim::Topology::kSingleZurich:
    case sim::Topology::kLan4:
      break;  // 4 replicas, LAN: no latency floor
    case sim::Topology::kInternet4:
      w.wan = sim::to_string(sim::Topology::kInternet4);
      break;
    case sim::Topology::kInternet7:
      cluster.n = 7;
      cluster.t = 2;
      w.wan = sim::to_string(sim::Topology::kInternet7);
      break;
  }
  cluster.shards = args.shards;
  w.byzantine = args.cfg.byzantine;
  w.operations = args.cfg.operations;
  // ChaosConfig's sim default (6 faults over 25 s) is too long for wall
  // clock; the wire default is 5 faults in a 6 s window at half time-scale.
  if (args.explicit_max_faults) w.max_faults = args.cfg.max_faults;
  w.time_scale = args.time_scale;
}

std::multiset<std::string> violated_invariants(const core::ChaosReport& r) {
  std::multiset<std::string> out;
  for (const auto& v : r.violations) out.insert(v.invariant);
  return out;
}

int wire_self_test(const Args& args) {
  // Same over-budget scenario as the sim self-test: mute n-t replicas so
  // updates cannot assemble t+1 signature shares, and demand that the wire
  // harness reports a violation that replays from the seed alone. Wire
  // timing varies run to run, so the replay must reproduce the violated
  // invariant set (the sim compares full reports byte for byte).
  net::WireCluster::Options copt;
  net::WireChaosOptions w;
  wire_shape(args, copt, w);
  net::WireCluster cluster(copt);
  w.seed = args.first_seed;
  w.schedule = sim::FaultSchedule{};  // the corruption alone is over budget
  std::map<unsigned, core::CorruptionMode> corrupt;
  for (unsigned i = 0; i < cluster.n() - cluster.t(); ++i) {
    corrupt[i] = core::CorruptionMode::kMute;
  }
  w.corruption = corrupt;
  w.no_stale_probe = false;
  const core::ChaosReport first = net::run_wire_chaos(cluster, w);
  if (first.ok()) {
    std::cerr << "wire self-test FAILED: " << corrupt.size()
              << " mute replicas produced no violation\n"
              << first.to_string();
    return 1;
  }
  const core::ChaosReport replay = net::run_wire_chaos(cluster, w);
  if (violated_invariants(replay) != violated_invariants(first)) {
    std::cerr << "wire self-test FAILED: replay of seed " << w.seed
              << " violated different invariants\nfirst:\n"
              << first.to_string() << "replay:\n"
              << replay.to_string();
    return 1;
  }
  std::cout << "wire self-test ok: violation detected and replayed\n"
            << first.to_string();
  return 0;
}

int wire_campaign(const Args& args) {
  net::WireCluster::Options copt;
  net::WireChaosOptions base;
  wire_shape(args, copt, base);
  net::WireCluster cluster(copt);

  if (args.single) {
    net::WireChaosOptions w = base;
    w.seed = args.first_seed;
    const core::ChaosReport report = net::run_wire_chaos(cluster, w);
    std::cout << report.to_string();
    return report.ok() ? 0 : 1;
  }

  std::cout << "wire chaos campaign: " << args.seeds << " seeds from "
            << args.first_seed << ", n=" << cluster.n() << ", t=" << cluster.t()
            << ", byzantine " << args.cfg.byzantine << ", time-scale "
            << args.time_scale << (base.wan.empty() ? "" : ", wan " + base.wan)
            << "\n";
  std::size_t failures = 0;
  for (std::size_t i = 0; i < args.seeds; ++i) {
    net::WireChaosOptions w = base;
    w.seed = args.first_seed + i;
    const core::ChaosReport report = net::run_wire_chaos(cluster, w);
    if (!report.ok()) {
      ++failures;
      std::cout << "FAILURE:\n"
                << report.to_string() << "replay: chaos_campaign --wire --seed "
                << report.seed << "\n";
    } else if ((i + 1) % 10 == 0 || i + 1 == args.seeds) {
      std::cout << (i + 1) << "/" << args.seeds << " wire runs clean\n";
    }
  }
  std::cout << args.seeds << " runs, " << failures << " failures\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;
  if (args.wire) {
    if (args.minimize) {
      std::cerr << "--minimize is sim-only: replay the seed without --wire to "
                   "shrink its schedule\n";
      return 2;
    }
    return args.self_test ? wire_self_test(args) : wire_campaign(args);
  }
  if (args.self_test) return self_test(args);

  if (args.single) {
    args.cfg.seed = args.first_seed;
    core::ChaosReport report =
        args.minimize ? core::minimize_failure(args.cfg) : core::run_chaos(args.cfg);
    std::cout << report.to_string();
    return report.ok() ? 0 : 1;
  }

  std::cout << "chaos campaign: " << args.seeds << " seeds from " << args.first_seed
            << ", topology " << sim::to_string(args.cfg.topology) << ", byzantine "
            << args.cfg.byzantine << "\n";
  core::CampaignResult result = core::run_campaign(
      args.cfg, args.first_seed, args.seeds, [&](const core::ChaosReport& r) {
        std::cout << "FAILURE:\n" << r.to_string();
        core::ChaosConfig cfg = args.cfg;
        cfg.seed = r.seed;
        core::ChaosReport minimized = core::minimize_failure(cfg);
        std::cout << "minimized reproducer:\n" << minimized.to_string();
      });
  std::cout << result.runs << " runs, " << result.failures.size()
            << " failures, deliveries per run " << result.min_delivered << ".."
            << result.max_delivered << "\n";
  return result.ok() ? 0 : 1;
}
