// Replica recovery via AXFR-style state transfer: a partitioned (or
// repaired) server reinstalls a verified zone snapshot and rejoins the
// state machine.
#include <gtest/gtest.h>

#include "core/service.hpp"
#include "crypto/rsa.hpp"
#include "dns/dnssec.hpp"
#include "util/bytes.hpp"

namespace sdns::core {
namespace {

using dns::Name;
using dns::RRType;

constexpr const char* kZoneText = R"(
@     IN SOA ns1.rec.example. hostmaster.rec.example. 100 7200 1200 604800 600
@     IN NS  ns1.rec.example.
ns1   IN A   192.0.2.53
www   IN A   192.0.2.80
)";

const Name kOrigin = Name::parse("rec.example.");

void partition_replica(ReplicatedService& svc, unsigned victim, bool blocked) {
  for (unsigned i = 0; i < svc.n(); ++i) {
    if (i != victim) svc.net().set_partitioned(victim, i, blocked);
  }
}

TEST(Recovery, PartitionedReplicaCatchesUpViaSnapshot) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ReplicatedService svc(opt, kOrigin, kZoneText);

  // Replica 3 drops off the network; the service keeps updating.
  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("a.rec.example."), "10.0.0.1").ok);
  ASSERT_TRUE(svc.add_record(Name::parse("b.rec.example."), "10.0.0.2").ok);
  ASSERT_TRUE(svc.delete_record(Name::parse("www.rec.example.")).ok);
  svc.settle();
  EXPECT_TRUE(svc.replica(3).server().zone().name_exists(Name::parse("www.rec.example.")));
  EXPECT_FALSE(svc.replica(3).server().zone().name_exists(Name::parse("a.rec.example.")));

  // The repaired replica rejoins and requests state transfer.
  partition_replica(svc, 3, false);
  svc.replica(3).start_recovery();
  svc.settle();
  EXPECT_FALSE(svc.replica(3).recovering());
  EXPECT_EQ(svc.replica(3).recoveries_completed(), 1u);
  EXPECT_EQ(svc.replica(3).server().zone().to_text(),
            svc.replica(0).server().zone().to_text());
  auto verify = dns::verify_zone(svc.replica(3).server().zone());
  EXPECT_TRUE(verify.ok) << verify.first_error;
}

TEST(Recovery, RecoveredReplicaExecutesSubsequentUpdates) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ReplicatedService svc(opt, kOrigin, kZoneText);
  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("during.rec.example."), "10.0.0.9").ok);
  svc.settle();
  partition_replica(svc, 3, false);
  svc.replica(3).start_recovery();
  svc.settle();
  ASSERT_FALSE(svc.replica(3).recovering());

  // A post-recovery update must reach and execute at replica 3 too.
  ASSERT_TRUE(svc.add_record(Name::parse("after.rec.example."), "10.0.0.10").ok);
  svc.settle();
  EXPECT_NE(svc.replica(3).server().zone().find(Name::parse("after.rec.example."),
                                                RRType::kA),
            nullptr);
  EXPECT_EQ(svc.replica(3).server().zone().to_text(),
            svc.replica(0).server().zone().to_text());
  EXPECT_EQ(svc.replica(3).server().zone().soa()->serial,
            svc.replica(0).server().zone().soa()->serial);
}

TEST(Recovery, CorruptSnapshotIsRejectedBySignatureCheck) {
  // A corrupted (stale-replay) server also serves snapshots; recovery must
  // still land on a fresh verified zone because it takes the max verified
  // cursor over t+1 responses.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.corrupted = {0};
  opt.corruption_mode = CorruptionMode::kFlipShares;
  ReplicatedService svc(opt, kOrigin, kZoneText);
  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("x.rec.example."), "10.0.0.1").ok);
  svc.settle();
  partition_replica(svc, 3, false);
  svc.replica(3).start_recovery();
  svc.settle();
  EXPECT_FALSE(svc.replica(3).recovering());
  EXPECT_NE(svc.replica(3).server().zone().find(Name::parse("x.rec.example."),
                                                RRType::kA),
            nullptr);
}

TEST(Recovery, SnapshotSignedUnderForgedKeyIsRejected) {
  // A Byzantine peer answers a recovery request with a zone it signed under
  // a key of its own making, claiming a cursor far ahead of the cluster.
  // The zone verifies against its own apex KEY; only pinning the dealt zone
  // key keeps the recovering replica from adopting it as the freshest.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ReplicatedService svc(opt, kOrigin, kZoneText);
  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("honest.rec.example."), "10.0.0.1").ok);
  svc.settle();
  // Replica 0 stays cut off from 3, so its honest snapshot can never
  // overwrite the forged one it "sends" below.
  svc.net().set_partitioned(3, 1, false);
  svc.net().set_partitioned(3, 2, false);

  dns::Zone forged = dns::Zone::from_text(kOrigin, kZoneText);
  dns::ResourceRecord rogue;
  rogue.name = Name::parse("rogue.rec.example.");
  rogue.type = RRType::kA;
  rogue.ttl = 300;
  rogue.rdata = dns::ARdata::from_text("192.0.2.66").encode();
  forged.add_record(rogue);
  util::Rng rng(99);
  const crypto::RsaPrivateKey forger = crypto::rsa_generate(rng, 512);
  dns::sign_zone(forged, forger.pub, 999'000, 999'000 + 365 * 24 * 3600,
                 [&](util::BytesView data) { return crypto::rsa_sign_sha1(forger, data); });
  ASSERT_TRUE(dns::verify_zone(forged).ok);
  ASSERT_FALSE(dns::verify_zone(forged, svc.zone_public_key()).ok);

  svc.replica(3).start_recovery();
  const std::uint64_t cursor = svc.replica(0).abcast().delivered_count() + 1000;
  util::Writer frame;
  frame.u8(0x04);  // snapshot frame: cursor, deliveries, update counter, zone
  frame.u64(cursor);
  frame.u64(cursor);
  frame.u64(cursor);
  frame.lp32(forged.to_wire());
  svc.replica(3).on_replica_message(0, std::move(frame).take());
  svc.settle();

  EXPECT_FALSE(svc.replica(3).recovering());
  const dns::Zone& zone = svc.replica(3).server().zone();
  EXPECT_FALSE(zone.name_exists(Name::parse("rogue.rec.example.")));
  EXPECT_TRUE(zone.name_exists(Name::parse("honest.rec.example.")));
  EXPECT_EQ(zone.to_text(), svc.replica(1).server().zone().to_text());
  const auto verify = dns::verify_zone(zone, svc.zone_public_key());
  EXPECT_TRUE(verify.ok) << verify.first_error;
}

TEST(Recovery, NoopWhenBaseCase) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kSingleZurich;
  ReplicatedService svc(opt, kOrigin, kZoneText);
  svc.replica(0).start_recovery();  // must not crash or dead-lock
  svc.settle();
  EXPECT_FALSE(svc.replica(0).recovering());
}

TEST(Recovery, CrashRecoveryAcrossShareRefresh) {
  // A replica crashes, the group proactively refreshes the zone key's shares
  // while it is down (§4.3), and keeps updating. The repaired replica comes
  // back holding a stale share: state transfer must still hand it the current
  // signed zone, updates must keep succeeding with its share useless, and the
  // dealer handoff of the missed share must restore it as a useful signer.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ReplicatedService svc(opt, kOrigin, kZoneText);

  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("pre.rec.example."), "10.0.0.1").ok);
  svc.settle();

  // Refresh while 3 is down; it keeps its now-stale share.
  svc.refresh_zone_shares({3});
  ASSERT_TRUE(svc.add_record(Name::parse("mid.rec.example."), "10.0.0.2").ok);
  svc.settle();

  partition_replica(svc, 3, false);
  svc.replica(3).start_recovery();
  svc.settle();
  ASSERT_FALSE(svc.replica(3).recovering());
  EXPECT_EQ(svc.replica(3).server().zone().to_text(),
            svc.replica(0).server().zone().to_text());
  auto verify = dns::verify_zone(svc.replica(3).server().zone());
  EXPECT_TRUE(verify.ok) << verify.first_error;

  // Replica 3's stale share cannot combine with the refreshed ones, but t+1
  // refreshed signers remain, so updates still go through.
  ASSERT_TRUE(svc.add_record(Name::parse("post.rec.example."), "10.0.0.3").ok);
  svc.settle();
  EXPECT_NE(svc.replica(3).server().zone().find(Name::parse("post.rec.example."),
                                                RRType::kA),
            nullptr);

  // The dealer hands over the share replica 3 missed; it signs again and the
  // group stays convergent and verified.
  svc.install_refreshed_share(3);
  ASSERT_TRUE(svc.add_record(Name::parse("final.rec.example."), "10.0.0.4").ok);
  svc.settle();
  for (unsigned i = 1; i < svc.n(); ++i) {
    EXPECT_EQ(svc.replica(i).server().zone().to_text(),
              svc.replica(0).server().zone().to_text());
  }
  auto final_verify = dns::verify_zone(svc.replica(3).server().zone());
  EXPECT_TRUE(final_verify.ok) << final_verify.first_error;
}

TEST(Recovery, SnapshotRequiresQuorumOfResponders) {
  // With every other replica partitioned away, recovery cannot finish; the
  // flag stays set (and no bogus zone is installed).
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  ReplicatedService svc(opt, kOrigin, kZoneText);
  partition_replica(svc, 3, true);
  ASSERT_TRUE(svc.add_record(Name::parse("y.rec.example."), "10.0.0.1").ok);
  svc.settle();
  svc.replica(3).start_recovery();  // still partitioned: requests go nowhere
  svc.settle();
  EXPECT_TRUE(svc.replica(3).recovering());
  EXPECT_FALSE(svc.replica(3).server().zone().name_exists(Name::parse("y.rec.example.")));
}

}  // namespace
}  // namespace sdns::core
