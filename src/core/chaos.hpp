// Seed-replayable chaos campaigns against the replicated name service.
//
// One chaos run is a pure function of a single uint64 seed: the seed fixes
// the service's randomness (per-node Rng streams), which replicas are
// Byzantine and how they misbehave, the client workload, and the network
// fault schedule (sim::random_schedule). A campaign runs many seeds and
// checks, after all faults heal, the global invariants the paper's design
// promises with at most t corrupted servers:
//
//   abcast-agreement   honest replicas never deliver different payloads at
//                      the same sequence number (safety of atomic broadcast),
//                      by per-entry log (sim) and by delivery chain (both);
//   zone-convergence   all honest replicas end with equal zone digests at
//                      the same delivery cursor;
//   zone-signature     every honest replica's signed zone passes full DNSSEC
//                      verification under the dealt zone key (threshold
//                      signing never produced an invalid SIG, and no forged
//                      snapshot was adopted);
//   recovery           no honest replica is stuck in state-transfer;
//   liveness           once the network is quiet, a probe query and a probe
//                      update complete successfully (bounded liveness).
//
// When a run fails, the report carries everything needed to reproduce it —
// the seed and the human-readable fault schedule — and minimize_failure()
// greedily deletes faults while the failure persists, shrinking the schedule
// to a minimal reproducer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "sim/adversary.hpp"

namespace sdns::core {

struct ChaosConfig {
  sim::Topology topology = sim::Topology::kLan4;
  threshold::SigProtocol sig_protocol = threshold::SigProtocol::kOptTE;
  std::uint64_t seed = 1;
  /// Replicas given a random Byzantine behavior (keep <= t for campaigns
  /// that must stay clean; > t is the harness's own violation self-test).
  unsigned byzantine = 0;
  std::size_t operations = 6;  ///< client workload ops before the probes
  std::size_t max_faults = 6;
  double fault_window = 25.0;  ///< fault activations land in [0, window)
  /// Replay support: run exactly this schedule instead of deriving one from
  /// the seed (minimization re-runs shrunken schedules this way).
  std::optional<sim::FaultSchedule> schedule;
  /// Pin the Byzantine assignment instead of deriving it from the seed.
  std::optional<std::map<unsigned, CorruptionMode>> corruption;
};

struct ChaosViolation {
  std::string invariant;  ///< "abcast-agreement", "zone-convergence", ...
  std::string detail;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  unsigned n = 0;
  unsigned t = 0;
  sim::FaultSchedule schedule;
  std::map<unsigned, CorruptionMode> corruption;
  std::size_t ops_attempted = 0;
  std::size_t ops_ok = 0;  ///< ops may fail mid-chaos; only probes must pass
  std::uint64_t delivered = 0;  ///< highest honest delivery cursor at the end
  std::vector<ChaosViolation> violations;

  bool ok() const { return violations.empty(); }
  /// The failure evidence: seed, Byzantine assignment, schedule, violations.
  std::string to_string() const;
};

/// Run one chaos scenario to completion. Deterministic in `cfg`.
ChaosReport run_chaos(const ChaosConfig& cfg);

/// The seeded Byzantine assignment (which `count` of `n` replicas misbehave,
/// and how). Shared with the wire-chaos harness so a seed names the same
/// corrupt replicas in the simulator and on the real mesh.
std::map<unsigned, CorruptionMode> draw_byzantine(std::uint64_t seed, unsigned n,
                                                  unsigned count);

/// The one invariant checker, for sim and wire observations alike. `t` is
/// the fault threshold (used only for context in messages). `fault_free`
/// enables the counter-based invariants: a run with no injected faults and
/// no Byzantine replicas must never leave the optimistic abcast path, so any
/// nonzero fallback count is a protocol regression even when safety held.
std::vector<ChaosViolation> check_observations(const std::vector<ReplicaObservation>& obs,
                                               unsigned t, bool fault_free = false);

/// The honest replicas a convergence loop pushes into state transfer: those
/// recovering, behind the front cursor, or with a zone digest other than
/// the front replica's. Shared by the sim and wire campaigns.
std::vector<unsigned> laggards(const std::vector<ReplicaObservation>& obs);

/// Greedily shrink a failing run's fault schedule: drop one fault at a time,
/// keeping each deletion that preserves the failure. Returns the report of
/// the minimized run (still failing, with the smallest schedule found).
ChaosReport minimize_failure(ChaosConfig cfg);

struct CampaignResult {
  std::size_t runs = 0;
  std::uint64_t min_delivered = 0;  ///< over every run's ChaosReport::delivered
  std::uint64_t max_delivered = 0;
  std::vector<ChaosReport> failures;
  bool ok() const { return failures.empty(); }
};

/// Run `count` scenarios with seeds first_seed, first_seed+1, ...; invokes
/// `on_failure` (if set) as each failing report is found.
CampaignResult run_campaign(const ChaosConfig& base, std::uint64_t first_seed,
                            std::size_t count,
                            const std::function<void(const ChaosReport&)>& on_failure = {});

}  // namespace sdns::core
