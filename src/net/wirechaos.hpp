// Wire-level chaos harness: the PR-2 seeded Byzantine campaigns, run
// against forked sdnsd-equivalent replica processes on real sockets.
//
// run_wire_chaos() is the deployed-artifact twin of core::run_chaos(): the
// same seed derives the same fault schedule (sim::random_schedule) and the
// same Byzantine assignment (core::draw_byzantine), but the faults are
// enforced by net::FaultInjector inside each replica process — message
// drops/delays/duplicates on the epoll mesh and the sharded UDP frontend —
// plus REAL crash/restart: the harness SIGKILLs a replica when a kCrash
// fault activates and respawns it with recovery at the heal time.
//
// The invariants are the simulator's, judged by the same
// core::check_observations() from outside: each honest replica's observe()
// fields, scraped from the stats.sdns. CH TXT endpoint, plus an AXFR of its
// zone verified under the dealt zone key. Liveness is a probe query against
// every honest replica plus one probe update that must converge
// everywhere; and a packet-cache staleness probe (the
// ShardedClusterTest no-stale pattern) asserts that no replica serves a
// pre-update answer after acknowledging the update. Results reuse
// core::ChaosReport, so campaign tooling prints sim and wire failures
// identically and a failing seed replays from the seed alone.
#pragma once

#include <sys/types.h>

#include <map>
#include <optional>
#include <string>

#include "core/chaos.hpp"
#include "net/cluster.hpp"

namespace sdns::net {

/// Dealt cluster material (keys, zone, configs), reusable across seeds —
/// the trusted-dealer step is per-cluster, not per-run. Ports come from a
/// PortBlock held for the cluster's lifetime.
class WireCluster {
 public:
  struct Options {
    unsigned n = 4;
    unsigned t = 1;
    unsigned shards = 1;  ///< frontend shards per replica
    std::uint64_t key_seed = 42;
    /// Per-replica durable stores (data_dir = <dir>/data<i>): a SIGKILLed
    /// replica respawns over its own WAL + snapshots and recovers from
    /// disk first instead of transferring the zone from the peers.
    bool durable = false;
  };

  explicit WireCluster(Options options);
  ~WireCluster();

  WireCluster(const WireCluster&) = delete;
  WireCluster& operator=(const WireCluster&) = delete;

  const ClusterFiles& files() const { return files_; }
  const std::string& dir() const { return dir_; }
  unsigned n() const { return opt_.n; }
  unsigned t() const { return opt_.t; }
  /// Wipe every replica's data directory. Clusters are reused across
  /// seeds (the dealer step is per-cluster); each run starts from empty
  /// disks so one seed's durable state never leaks into the next, while
  /// kill/respawn WITHIN a run reuses the dirs — that is the point.
  void reset_data_dirs() const;

 private:
  Options opt_;
  PortBlock ports_;
  std::string dir_;
  ClusterFiles files_;
};

/// Per-process overrides applied on top of a WireCluster config when
/// forking one replica (tests build bespoke scenarios from this too).
struct WireReplicaConfig {
  std::string schedule_path;  ///< serialized FaultSchedule; "" = none
  std::uint64_t fault_seed = 0;
  double time_scale = 1.0;
  double fault_start = 0;  ///< CLOCK_MONOTONIC second of schedule time 0
  std::string wan;         ///< Figure-1 topology name; "" = none
  core::CorruptionMode corruption = core::CorruptionMode::kHonest;
  bool recover = false;
  double recover_delay = 0.3;
  /// Faster epoch-change fallback than the 5 s production default, so a
  /// compressed schedule can wedge and un-wedge within a campaign run.
  double complaint_timeout = 1.5;
};

/// Fork one replica process (EventLoop + ReplicaRuntime — the sdnsd code
/// path). Returns the child pid; the child never returns.
pid_t spawn_wire_replica(const WireCluster& cluster, unsigned id,
                         const WireReplicaConfig& rc);

/// CLOCK_MONOTONIC seconds — the clock EventLoop::now() uses, machine-wide,
/// so the harness and every forked replica agree on fault_start.
double monotonic_now();

struct WireChaosOptions {
  std::uint64_t seed = 1;
  /// Replicas given a seeded Byzantine behavior (<= t for clean campaigns).
  unsigned byzantine = 0;
  std::size_t operations = 6;  ///< client workload ops during the faults
  std::size_t max_faults = 5;
  double fault_window = 6.0;  ///< schedule seconds
  /// Wall seconds per schedule second — 0.5 runs the window in half time.
  double time_scale = 0.5;
  double boot_budget = 2.0;  ///< wall seconds from spawn to schedule start
  std::string wan;           ///< Figure-1 topology name; "" = LAN (no floor)
  /// Replay support: run exactly this schedule instead of deriving one.
  std::optional<sim::FaultSchedule> schedule;
  /// Pin the Byzantine assignment instead of deriving it from the seed.
  std::optional<std::map<unsigned, core::CorruptionMode>> corruption;
  /// After heal + convergence, run the packet-cache staleness probe.
  bool no_stale_probe = true;
};

/// Run one wire-chaos scenario against freshly forked replicas of
/// `cluster`. Blocking; seconds of wall time per run. All child processes
/// are reaped before returning.
core::ChaosReport run_wire_chaos(const WireCluster& cluster,
                                 const WireChaosOptions& opt);

}  // namespace sdns::net
