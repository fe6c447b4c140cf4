// Disk-first cold restart on the simulated testbed: a whole cluster shuts
// down and a second ReplicatedService boots over the same data directories.
// Every replica must restore from its own WAL + snapshot (no network state
// transfer), replay the logged updates cooperatively (the threshold signing
// sessions re-run across the cluster), and come back serving the exact
// signed zone it acknowledged before the shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "dns/dnssec.hpp"
#include "util/fileio.hpp"

namespace sdns::core {
namespace {

using dns::Name;
using dns::RRType;

constexpr const char* kZoneText = R"(
@     IN SOA ns1.dur.example. hostmaster.dur.example. 100 7200 1200 604800 600
@     IN NS  ns1.dur.example.
ns1   IN A   192.0.2.53
www   IN A   192.0.2.80
)";

const Name kOrigin = Name::parse("dur.example.");

class DurableRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/sdns_restart_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    (void)std::system(cleanup.c_str());
  }

  ServiceOptions durable_options(unsigned n = 4) {
    ServiceOptions opt;
    opt.topology = sim::Topology::kLan4;
    for (unsigned i = 0; i < n; ++i) {
      opt.data_dirs.push_back(dir_ + "/data" + std::to_string(i));
    }
    return opt;
  }

  std::string dir_;
};

TEST_F(DurableRestartTest, ColdRestartReplaysWalWithoutNetworkTransfer) {
  const ServiceOptions opt = durable_options();
  std::string zone_before;
  {
    ReplicatedService svc(opt, kOrigin, kZoneText);
    ASSERT_TRUE(svc.add_record(Name::parse("a.dur.example."), "10.0.0.1").ok);
    ASSERT_TRUE(svc.add_record(Name::parse("b.dur.example."), "10.0.0.2").ok);
    ASSERT_TRUE(svc.delete_record(Name::parse("www.dur.example.")).ok);
    svc.settle();
    zone_before = svc.replica(0).server().zone().to_text();
  }

  // Same directories, fresh processes (the dealer's material re-derives
  // deterministically from the seed — as if each sdnsd re-read its config).
  ReplicatedService svc(opt, kOrigin, kZoneText);
  for (unsigned i = 0; i < svc.n(); ++i) {
    ASSERT_NE(svc.store(i), nullptr);
    EXPECT_TRUE(svc.store(i)->recovered().usable()) << "replica " << i;
  }
  svc.settle();  // the replayed signing sessions complete cooperatively

  for (unsigned i = 0; i < svc.n(); ++i) {
    EXPECT_FALSE(svc.replica(i).recovering()) << "replica " << i;
    // Disk-first means disk ONLY: nobody fell back to network transfer.
    EXPECT_EQ(svc.replica(i).recoveries_completed(), 0u) << "replica " << i;
    EXPECT_EQ(svc.replica(i).server().zone().to_text(), zone_before)
        << "replica " << i;
  }
  const auto verify = dns::verify_zone(svc.replica(0).server().zone());
  EXPECT_TRUE(verify.ok) << verify.first_error;

  // The restored cluster still serves and still updates.
  EXPECT_TRUE(svc.query(Name::parse("a.dur.example."), RRType::kA).ok);
  ASSERT_TRUE(svc.add_record(Name::parse("c.dur.example."), "10.0.0.3").ok);
  svc.settle();
  for (unsigned i = 0; i < svc.n(); ++i) {
    EXPECT_NE(
        svc.replica(i).server().zone().find(Name::parse("c.dur.example."),
                                            RRType::kA),
        nullptr)
        << "replica " << i;
  }
}

TEST_F(DurableRestartTest, ReadDuringBootReplayIsAnsweredAtTheCommitPoint) {
  // Boot replay re-runs the logged add with its response muted: its client
  // was answered in the previous life. A direct read that reaches a replica
  // while the replayed batch signs waits for the batch's commit point and is
  // answered there, on the first try; it is not a replayed operation.
  ServiceOptions opt = durable_options();
  opt.disseminate_reads = false;
  {
    ReplicatedService svc(opt, kOrigin, kZoneText);
    ASSERT_TRUE(svc.add_record(Name::parse("a.dur.example."), "10.0.0.1").ok);
    svc.settle();
  }
  ReplicatedService svc(opt, kOrigin, kZoneText);
  ReplicaNode& gateway = svc.replica(opt.gateway);
  ASSERT_EQ(gateway.signatures_computed(), 0u);
  const auto res = svc.query(Name::parse("a.dur.example."), RRType::kA);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.tries, 1u) << "the read was muted with the replayed operations";
  EXPECT_EQ(res.response.rcode, dns::Rcode::kNoError);
  EXPECT_GT(gateway.signatures_computed(), 0u) << "the read did not meet the replay";
  svc.settle();
  EXPECT_EQ(gateway.recoveries_completed(), 0u);
}

TEST_F(DurableRestartTest, RestartFromSnapshotAfterCompaction) {
  ServiceOptions opt = durable_options();
  opt.snapshot_log_bytes = 1;  // compact whenever the replica goes idle
  std::string zone_before;
  {
    ReplicatedService svc(opt, kOrigin, kZoneText);
    ASSERT_TRUE(svc.add_record(Name::parse("s1.dur.example."), "10.0.1.1").ok);
    ASSERT_TRUE(svc.add_record(Name::parse("s2.dur.example."), "10.0.1.2").ok);
    svc.settle();
    zone_before = svc.replica(0).server().zone().to_text();
    for (unsigned i = 0; i < svc.n(); ++i) {
      EXPECT_GT(svc.store(i)->snapshots_written(), 0u) << "replica " << i;
    }
  }

  ReplicatedService svc(opt, kOrigin, kZoneText);
  for (unsigned i = 0; i < svc.n(); ++i) {
    ASSERT_TRUE(svc.store(i)->recovered().snapshot.has_value())
        << "replica " << i;
    // The snapshot's embedded zone passed the threshold-signature verifier
    // (the service installs the same verifier as the deployed runtime).
    EXPECT_TRUE(svc.store(i)->recovered().usable());
  }
  svc.settle();
  for (unsigned i = 0; i < svc.n(); ++i) {
    EXPECT_EQ(svc.replica(i).recoveries_completed(), 0u);
    EXPECT_EQ(svc.replica(i).server().zone().to_text(), zone_before);
  }

  // Serve a read for a record that only exists via the restored state.
  const auto res = svc.query(Name::parse("s2.dur.example."), RRType::kA);
  EXPECT_TRUE(res.ok);
}

// fnv1a-64, matching the snapshot trailer in durable.cpp.
std::uint64_t snapshot_fnv1a(util::BytesView data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Rewrite `path` as the snapshot a pre-SDNSZONE2 build would have left on
/// disk: version byte 1 and the embedded zone re-encoded in the legacy v1
/// wire format, checksum recomputed. Everything else is preserved.
void downgrade_snapshot_to_v1(const std::string& path) {
  const util::Bytes raw = util::read_entire_file(path);
  util::Reader r(raw);
  r.raw(8);                        // magic
  ASSERT_EQ(r.u8(), 2u);           // current builds write version 2
  const std::uint64_t counters[4] = {r.u64(), r.u64(), r.u64(), r.u64()};
  const util::Bytes zone_wire = r.lp32();
  const util::Bytes zone_v1 = dns::Zone::from_wire(zone_wire).to_wire_v1();

  util::Writer w;
  static constexpr char kMagic[8] = {'S', 'D', 'N', 'S', 'S', 'N', 'A', 'P'};
  w.raw(kMagic, sizeof kMagic);
  w.u8(1);
  for (const std::uint64_t c : counters) w.u64(c);
  w.lp32(zone_v1);
  w.u64(snapshot_fnv1a(w.bytes()));
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const util::Bytes out = std::move(w).take();
  ASSERT_EQ(std::fwrite(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
}

TEST_F(DurableRestartTest, UpgradedClusterRestoresVersionOneSnapshots) {
  // A cluster that snapshotted under the old build restarts under this one:
  // every replica's on-disk snapshot is rewritten to the legacy format, and
  // recovery must still verify the threshold signature and restore the exact
  // zone — the upgrade needs no migration step and no network transfer.
  ServiceOptions opt = durable_options();
  opt.snapshot_log_bytes = 1;  // compact whenever the replica goes idle
  std::string zone_before;
  {
    ReplicatedService svc(opt, kOrigin, kZoneText);
    ASSERT_TRUE(svc.add_record(Name::parse("u1.dur.example."), "10.0.3.1").ok);
    ASSERT_TRUE(svc.add_record(Name::parse("u2.dur.example."), "10.0.3.2").ok);
    svc.settle();
    zone_before = svc.replica(0).server().zone().to_text();
    for (unsigned i = 0; i < svc.n(); ++i) {
      ASSERT_GT(svc.store(i)->snapshots_written(), 0u) << "replica " << i;
    }
  }
  for (unsigned i = 0; i < 4; ++i) {
    downgrade_snapshot_to_v1(dir_ + "/data" + std::to_string(i) +
                             "/snapshot.bin");
  }

  ReplicatedService svc(opt, kOrigin, kZoneText);
  for (unsigned i = 0; i < svc.n(); ++i) {
    ASSERT_TRUE(svc.store(i)->recovered().snapshot.has_value())
        << "replica " << i;
  }
  svc.settle();
  for (unsigned i = 0; i < svc.n(); ++i) {
    EXPECT_FALSE(svc.replica(i).recovering()) << "replica " << i;
    EXPECT_EQ(svc.replica(i).recoveries_completed(), 0u) << "replica " << i;
    EXPECT_EQ(svc.replica(i).server().zone().to_text(), zone_before)
        << "replica " << i;
  }
  const auto verify = dns::verify_zone(svc.replica(0).server().zone());
  EXPECT_TRUE(verify.ok) << verify.first_error;

  // The first post-upgrade compaction rewrites the disk in the new format.
  ASSERT_TRUE(svc.add_record(Name::parse("u3.dur.example."), "10.0.3.3").ok);
  svc.settle();
  const util::Bytes fresh =
      util::read_entire_file(dir_ + "/data0/snapshot.bin");
  ASSERT_GT(fresh.size(), 9u);
  EXPECT_EQ(fresh[8], 2u);
}

TEST_F(DurableRestartTest, TamperedSnapshotFallsBackToNetworkTransfer) {
  ServiceOptions opt = durable_options();
  opt.snapshot_log_bytes = 1;
  {
    ReplicatedService svc(opt, kOrigin, kZoneText);
    ASSERT_TRUE(svc.add_record(Name::parse("t1.dur.example."), "10.0.2.1").ok);
    svc.settle();
    ASSERT_GT(svc.store(3)->snapshots_written(), 0u);
  }

  // An attacker with disk access flips a bit inside replica 3's snapshot
  // and fixes up the checksum story by... nothing — even a checksum-valid
  // forgery would fail the zone-signature verifier. Here the checksum
  // catches it; either way the replica must not trust the disk.
  const std::string snap = dir_ + "/data3/snapshot.bin";
  FILE* f = std::fopen(snap.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  std::fputc(0xAA, f);
  std::fclose(f);

  ReplicatedService svc(opt, kOrigin, kZoneText);
  // Replica 3's disk was rejected (zone bytes no longer checksum); its WAL
  // alone cannot replay from the snapshot's base, so it boots empty and
  // catches up through the normal network recovery path.
  EXPECT_FALSE(svc.store(3)->recovered().snapshot.has_value());
  svc.settle();
  svc.replica(3).start_recovery();
  svc.settle();
  EXPECT_FALSE(svc.replica(3).recovering());
  EXPECT_EQ(svc.replica(3).server().zone().to_text(),
            svc.replica(0).server().zone().to_text());
}

}  // namespace
}  // namespace sdns::core
