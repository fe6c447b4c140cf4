// Chaos-harness tests: the invariant checkers on fabricated observations,
// determinism and replay of whole chaos runs, smoke campaigns within the
// fault bound, violation detection beyond it, and schedule minimization.
// Registered with the "chaos" CTest label (ctest -L chaos).
#include <gtest/gtest.h>

#include "core/chaos.hpp"

namespace sdns::core {
namespace {

abcast::Digest digest(std::uint8_t fill) {
  abcast::Digest d{};
  d.fill(fill);
  return d;
}

ReplicaObservation honest_obs(unsigned id) {
  ReplicaObservation o;
  o.id = id;
  o.zone_signed = true;
  o.zone_verifies = true;
  o.delivered = 2;
  o.delivery_log = {{0, digest(1)}, {1, digest(2)}};
  o.zone_digest = 0xAABB;
  return o;
}

TEST(ChaosCheckers, CleanObservationsProduceNoViolations) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1), honest_obs(2)};
  EXPECT_TRUE(check_observations(obs, 1).empty());
}

TEST(ChaosCheckers, DetectsAgreementViolation) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].delivery_log[1] = digest(9);  // same sequence, different payload
  obs[1].zone_digest = obs[0].zone_digest; // isolate the agreement check
  auto v = check_observations(obs, 1);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v.front().invariant, "abcast-agreement");
}

TEST(ChaosCheckers, DetectsZoneDivergenceAtSameCursor) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].zone_digest = 0xDEAD;
  auto v = check_observations(obs, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "zone-convergence");
}

TEST(ChaosCheckers, DetectsLaggingCursor) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].delivered = 1;
  obs[1].delivery_log.erase(1);
  auto v = check_observations(obs, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "zone-convergence");
}

TEST(ChaosCheckers, DetectsStuckRecovery) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].recovering = true;
  auto v = check_observations(obs, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "recovery");
}

TEST(ChaosCheckers, DetectsInvalidZoneSignature) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].zone_verifies = false;
  auto v = check_observations(obs, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "zone-signature");
}

// The first counter-based invariant: a fault-free run must never leave the
// optimistic abcast path, so a nonzero fallback counter is a violation even
// when every safety invariant held.
TEST(ChaosCheckers, FaultFreeRunWithFallbacksIsAViolation) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].fallbacks = 3;
  auto v = check_observations(obs, 1, /*fault_free=*/true);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "fallback-free");
  EXPECT_NE(v.front().detail.find("replica 1"), std::string::npos);
}

TEST(ChaosCheckers, FallbacksAreAllowedWhenFaultsWereInjected) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].fallbacks = 3;
  EXPECT_TRUE(check_observations(obs, 1, /*fault_free=*/false).empty());
}

TEST(ChaosCheckers, FaultFreeRunWithoutFallbacksIsClean) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  EXPECT_TRUE(check_observations(obs, 1, /*fault_free=*/true).empty());
}

TEST(Chaos, FaultFreeRunStaysOnTheOptimisticPath) {
  // No injected faults, no Byzantine replicas: run_chaos flags the run as
  // fault-free and enforces fallback == 0 on every replica end-to-end.
  ChaosConfig cfg;
  cfg.seed = 11;
  cfg.byzantine = 0;
  cfg.max_faults = 0;
  const ChaosReport r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ChaosCheckers, ByzantineReplicasAreExemptFromEveryInvariant) {
  std::vector<ReplicaObservation> obs = {honest_obs(0), honest_obs(1)};
  obs[1].byzantine = true;
  obs[1].delivery_log[1] = digest(9);
  obs[1].zone_digest = 0xDEAD;
  obs[1].recovering = true;
  obs[1].zone_verifies = false;
  EXPECT_TRUE(check_observations(obs, 1).empty());
}

// ---- the wire's shape: no per-entry log, only the delivery chain ----------

ReplicaObservation wire_obs(unsigned id) {
  ReplicaObservation o = honest_obs(id);
  o.delivery_log.clear();
  o.digest_floor = 0;
  o.delivery_digest = 0x1234;
  return o;
}

TEST(ChaosCheckers, WireShapedCleanObservationsProduceNoViolations) {
  std::vector<ReplicaObservation> obs = {wire_obs(0), wire_obs(1), wire_obs(2)};
  EXPECT_TRUE(check_observations(obs, 1).empty());
}

TEST(ChaosCheckers, EqualChainSpanWithDifferentDigestIsAnAgreementViolation) {
  std::vector<ReplicaObservation> obs = {wire_obs(0), wire_obs(1)};
  obs[1].delivery_digest = 0x9999;
  auto v = check_observations(obs, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "abcast-agreement");
}

TEST(ChaosCheckers, ChainsWithDifferentFloorsAreNotCompared) {
  // A replica that adopted a snapshot chains from a later floor; its digest
  // covers a shorter span and must not be held against the others'.
  std::vector<ReplicaObservation> obs = {wire_obs(0), wire_obs(1)};
  obs[1].digest_floor = 1;
  obs[1].delivery_digest = 0x9999;
  EXPECT_TRUE(check_observations(obs, 1).empty());
}

TEST(ChaosCheckers, EmptyLogFloorIsHandled) {
  // Floor -1 (nothing in the log) compares only against another -1 at the
  // same cursor, never against a chain from floor 0.
  std::vector<ReplicaObservation> obs = {wire_obs(0), wire_obs(1), wire_obs(2)};
  obs[1].digest_floor = -1;
  obs[1].delivery_digest = 0x5555;
  EXPECT_TRUE(check_observations(obs, 1).empty());
  obs[2].digest_floor = -1;
  obs[2].delivery_digest = 0x6666;
  auto v = check_observations(obs, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.front().invariant, "abcast-agreement");
  EXPECT_NE(v.front().detail.find("replicas 1 and 2"), std::string::npos);
}

TEST(ChaosCheckers, LaggardsAreRecoveringBehindOrDivergentHonestReplicas) {
  std::vector<ReplicaObservation> obs = {wire_obs(0), wire_obs(1), wire_obs(2),
                                         wire_obs(3), wire_obs(4)};
  EXPECT_TRUE(laggards(obs).empty());
  obs[1].recovering = true;
  obs[2].delivered = 1;
  obs[3].zone_digest = 0xDEAD;
  obs[4].byzantine = true;
  obs[4].delivered = 0;
  EXPECT_EQ(laggards(obs), (std::vector<unsigned>{1, 2, 3}));
}

// ---- whole-run properties (each run is a short simulation) ----------------

TEST(Chaos, RunIsAPureFunctionOfTheSeed) {
  ChaosConfig cfg;
  cfg.seed = 7;
  cfg.byzantine = 1;
  const ChaosReport a = run_chaos(cfg);
  const ChaosReport b = run_chaos(cfg);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_TRUE(a.ok()) << a.to_string();
}

TEST(Chaos, DifferentSeedsDrawDifferentSchedules) {
  ChaosConfig a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(run_chaos(a).schedule.to_string(), run_chaos(b).schedule.to_string());
}

TEST(Chaos, SmokeCampaignLan4OneByzantine) {
  ChaosConfig cfg;
  cfg.byzantine = 1;
  const CampaignResult r = run_campaign(cfg, /*first_seed=*/1, /*count=*/8);
  EXPECT_EQ(r.runs, 8u);
  for (const ChaosReport& f : r.failures) ADD_FAILURE() << f.to_string();
}

TEST(Chaos, SmokeCampaignInternet7TwoByzantine) {
  ChaosConfig cfg;
  cfg.topology = sim::Topology::kInternet7;
  cfg.byzantine = 2;
  const CampaignResult r = run_campaign(cfg, /*first_seed=*/1, /*count=*/4);
  EXPECT_EQ(r.runs, 4u);
  for (const ChaosReport& f : r.failures) ADD_FAILURE() << f.to_string();
}

TEST(Chaos, PeersBusyWhenAPartitionHealsStillServeTheSnapshot) {
  // Seed 2 heals a partitioned replica while its peers are mid-update. A
  // snapshot request that arrives mid-operation is answered once the peer's
  // pipeline drains; were it dropped, the replica would stay recovering and
  // re-announce its ever-growing pending set until the event cap tripped.
  // 400 operations also carry the run well past two retention windows.
  ChaosConfig cfg;
  cfg.seed = 2;
  cfg.byzantine = 1;
  cfg.operations = 400;
  const ChaosReport r = run_chaos(cfg);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.delivered, 2 * abcast::AtomicBroadcast::kRetainWindow);
}

// Beyond the fault bound the harness must FAIL: mute n-t signers so only t
// shares remain — below the t+1 assembly threshold — and demand a reported,
// seed-replayable violation. (t+1 mute replicas are NOT enough: threshold
// signing tolerates up to n-t-1 withheld shares.)
TEST(Chaos, BeyondFaultBoundViolationIsDetectedAndReplays) {
  ChaosConfig cfg;
  cfg.seed = 3;
  std::map<unsigned, CorruptionMode> corrupt;
  const ChaosReport probe = run_chaos(cfg);
  for (unsigned i = 0; i < probe.n - probe.t; ++i) corrupt[i] = CorruptionMode::kMute;
  cfg.corruption = corrupt;
  const ChaosReport first = run_chaos(cfg);
  ASSERT_FALSE(first.ok()) << first.to_string();
  const ChaosReport replay = run_chaos(cfg);
  EXPECT_EQ(first.to_string(), replay.to_string());
}

TEST(Chaos, MinimizerShrinksAFailingSchedule) {
  ChaosConfig cfg;
  cfg.seed = 3;
  std::map<unsigned, CorruptionMode> corrupt;
  const ChaosReport probe = run_chaos(cfg);
  for (unsigned i = 0; i < probe.n - probe.t; ++i) corrupt[i] = CorruptionMode::kMute;
  cfg.corruption = corrupt;
  const ChaosReport full = run_chaos(cfg);
  ASSERT_FALSE(full.ok());
  const ChaosReport minimized = minimize_failure(cfg);
  EXPECT_FALSE(minimized.ok());
  // The failure here is corruption-induced, independent of network faults, so
  // greedy deletion must strip the schedule entirely.
  EXPECT_LE(minimized.schedule.faults.size(), full.schedule.faults.size());
  EXPECT_TRUE(minimized.schedule.faults.empty()) << minimized.schedule.to_string();
}

}  // namespace
}  // namespace sdns::core
