// ReplicaNode::observe(): the one observation form the stats gauges and
// both chaos campaigns read. These pin the delivery chain across the two
// ways a replica's log gets a hole or a new start — state-transfer adoption
// and disk-first restore — so the chain the checker compares means the same
// thing after either.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "core/service.hpp"

namespace sdns::core {
namespace {

using dns::Name;

constexpr const char* kZoneText = R"(
@     IN SOA ns1.obs.example. hostmaster.obs.example. 100 7200 1200 604800 600
@     IN NS  ns1.obs.example.
ns1   IN A   192.0.2.53
www   IN A   192.0.2.80
)";

const Name kOrigin = Name::parse("obs.example.");

void partition_replica(ReplicatedService& svc, unsigned victim, bool blocked) {
  for (unsigned i = 0; i < svc.n(); ++i) {
    if (i != victim) svc.net().set_partitioned(victim, i, blocked);
  }
}

class Observe : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sdns_observe_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    (void)std::system(cleanup.c_str());
  }
  std::string dir_;
};

std::vector<ReplicaObservation> observe_all(ReplicatedService& svc) {
  std::vector<ReplicaObservation> obs;
  for (unsigned i = 0; i < svc.n(); ++i) {
    obs.push_back(svc.replica(i).observe());
    obs.back().delivery_log = svc.replica(i).delivery_log();
  }
  return obs;
}

TEST_F(Observe, AdoptionStartsTheChainAtTheAdoptedCursor) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ReplicatedService svc(opt, kOrigin, kZoneText);
  ASSERT_TRUE(svc.add_record(Name::parse("before.obs.example."), "10.0.0.1").ok);
  svc.settle();
  const ReplicaObservation pre = svc.replica(3).observe();
  ASSERT_GT(pre.delivered, 0u);
  EXPECT_EQ(pre.digest_floor, 0);

  // Replica 3 misses two updates, then adopts a peer's snapshot.
  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("a.obs.example."), "10.0.0.2").ok);
  ASSERT_TRUE(svc.add_record(Name::parse("b.obs.example."), "10.0.0.3").ok);
  svc.settle();
  partition_replica(svc, 3, false);
  svc.replica(3).start_recovery();
  svc.settle();
  ASSERT_EQ(svc.replica(3).recoveries_completed(), 1u);

  // The pre-partition entries no longer reach the cursor: the chain is
  // empty and starts at the adopted cursor, not at sequence 0.
  const ReplicaObservation adopted = svc.replica(3).observe();
  const ReplicaObservation peer = svc.replica(0).observe();
  EXPECT_GT(adopted.delivered, pre.delivered);
  EXPECT_EQ(adopted.delivered, peer.delivered);
  EXPECT_EQ(adopted.digest_floor, static_cast<std::int64_t>(adopted.delivered));
  EXPECT_EQ(adopted.zone_digest, peer.zone_digest);
  EXPECT_TRUE(check_observations(observe_all(svc), svc.t()).empty());

  // The next delivery extends the chain from that floor.
  ASSERT_TRUE(svc.add_record(Name::parse("after.obs.example."), "10.0.0.4").ok);
  svc.settle();
  const ReplicaObservation next = svc.replica(3).observe();
  EXPECT_EQ(next.digest_floor, static_cast<std::int64_t>(adopted.delivered));
  EXPECT_GT(next.delivered, adopted.delivered);
  EXPECT_TRUE(check_observations(observe_all(svc), svc.t()).empty());
}

TEST_F(Observe, DiskRestoreReplayingWalMarksKeepsTheChain) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ASSERT_TRUE(opt.disseminate_reads);  // reads are delivered and logged as marks
  for (unsigned i = 0; i < 4; ++i) opt.data_dirs.push_back(dir_ + "/data" + std::to_string(i));

  std::vector<ReplicaObservation> before;
  {
    ReplicatedService svc(opt, kOrigin, kZoneText);
    ASSERT_TRUE(svc.query(Name::parse("www.obs.example."), dns::RRType::kA).ok);
    ASSERT_TRUE(svc.add_record(Name::parse("a.obs.example."), "10.0.0.1").ok);
    ASSERT_TRUE(svc.query(Name::parse("a.obs.example."), dns::RRType::kA).ok);
    svc.settle();
    for (unsigned i = 0; i < svc.n(); ++i) before.push_back(svc.replica(i).observe());
  }

  ReplicatedService svc(opt, kOrigin, kZoneText);
  svc.settle();
  for (unsigned i = 0; i < svc.n(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    const ReplicaObservation after = svc.replica(i).observe();
    EXPECT_EQ(svc.replica(i).recoveries_completed(), 0u);
    EXPECT_GE(before[i].delivered, 3u);
    EXPECT_EQ(after.delivered, before[i].delivered);
    EXPECT_EQ(after.digest_floor, before[i].digest_floor);
    EXPECT_EQ(after.delivery_digest, before[i].delivery_digest);
    EXPECT_EQ(after.zone_digest, before[i].zone_digest);
  }
}

}  // namespace
}  // namespace sdns::core
