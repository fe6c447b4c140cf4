// End-to-end tests of the replicated name service on the simulated testbed.
// These trace the paper's goals: G1/G2 for voting clients, G1'/G2' for
// pragmatic clients, G3 for the zone key, across corruption scenarios.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dns/dnssec.hpp"
#include "dns/xfr.hpp"

namespace sdns::core {
namespace {

using dns::Name;
using dns::RRType;

constexpr const char* kZoneText = R"(
@     IN SOA ns1.corp.example. hostmaster.corp.example. 100 7200 1200 604800 600
@     IN NS  ns1.corp.example.
@     IN NS  ns2.corp.example.
@     IN MX  10 mail.corp.example.
ns1   IN A   192.0.2.53
ns2   IN A   192.0.2.54
mail  IN A   192.0.2.25
www   IN A   192.0.2.80
)";

const Name kOrigin = Name::parse("corp.example.");

ReplicatedService make_service(ServiceOptions opt) {
  return ReplicatedService(std::move(opt), kOrigin, kZoneText);
}

/// An RFC 2136 update adding an A record at each of `hosts`.
dns::Message add_update(const std::vector<std::string>& hosts) {
  dns::Message update;
  update.opcode = dns::Opcode::kUpdate;
  update.questions.push_back({kOrigin, RRType::kSOA, dns::RRClass::kIN});
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    dns::ResourceRecord rr;
    rr.name = Name::parse(hosts[i] + ".corp.example.");
    rr.type = RRType::kA;
    rr.ttl = 300;
    rr.rdata = dns::ARdata::from_text("10.2." + std::to_string(i / 250) + "." +
                                      std::to_string(i % 250 + 1))
                   .encode();
    update.updates().push_back(rr);
  }
  return update;
}

/// Sends `updates` concurrently through the client and runs the simulator
/// until all are answered; returns how many succeeded.
unsigned send_concurrently(ReplicatedService& svc, std::vector<dns::Message> updates) {
  unsigned done = 0, ok = 0;
  for (auto& update : updates) {
    svc.client().send_update(std::move(update), [&](Client::Result r) {
      ++done;
      if (r.ok) ++ok;
    });
  }
  while (done < updates.size() && svc.sim().step()) {
  }
  return ok;
}

TEST(Service, BaseCaseSingleServerQuery) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kSingleZurich;
  auto svc = make_service(opt);
  auto r = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.response.rcode, dns::Rcode::kNoError);
  EXPECT_FALSE(r.response.answers.empty());
  EXPECT_GT(r.latency, 0.0);
  EXPECT_LT(r.latency, 0.1);
}

TEST(Service, BaseCaseUpdateSignsLocally) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kSingleZurich;
  auto svc = make_service(opt);
  auto r = svc.add_record(Name::parse("new.corp.example."), "10.0.0.1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(svc.replica(0).signatures_computed(), 4u);
  auto verify = dns::verify_zone(svc.replica(0).server().zone());
  EXPECT_TRUE(verify.ok) << verify.first_error;
}

TEST(Service, ReplicatedQueryLan4) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  auto r = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.response.answers.empty());
  // The paper's (4,0)* read: ~0.05 s through atomic broadcast on the LAN.
  EXPECT_GT(r.latency, 0.01);
  EXPECT_LT(r.latency, 0.25);
}

TEST(Service, ReplicatedQueryInternetIsSlower) {
  ServiceOptions lan_opt;
  lan_opt.topology = sim::Topology::kLan4;
  auto lan = make_service(lan_opt);
  ServiceOptions inet_opt;
  inet_opt.topology = sim::Topology::kInternet4;
  auto inet = make_service(inet_opt);
  auto lan_r = lan.query(Name::parse("www.corp.example."), RRType::kA);
  auto inet_r = inet.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(lan_r.ok);
  ASSERT_TRUE(inet_r.ok);
  EXPECT_GT(inet_r.latency, 2 * lan_r.latency);
}

class AllProtocolsService : public ::testing::TestWithParam<threshold::SigProtocol> {};

INSTANTIATE_TEST_SUITE_P(SigProtocols, AllProtocolsService,
                         ::testing::Values(threshold::SigProtocol::kBasic,
                                           threshold::SigProtocol::kOptProof,
                                           threshold::SigProtocol::kOptTE),
                         [](const auto& info) { return threshold::to_string(info.param); });

TEST_P(AllProtocolsService, SignedUpdateCompletesAndVerifies) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.sig_protocol = GetParam();
  auto svc = make_service(opt);
  auto r = svc.add_record(Name::parse("host.corp.example."), "10.1.2.3");
  ASSERT_TRUE(r.ok);
  svc.settle();
  // Every honest replica committed the update, computed the same four
  // signatures, and holds a fully verifying zone.
  for (unsigned i = 0; i < svc.n(); ++i) {
    EXPECT_EQ(svc.replica(i).signatures_computed(), 4u) << i;
    auto verify = dns::verify_zone(svc.replica(i).server().zone());
    EXPECT_TRUE(verify.ok) << "replica " << i << ": " << verify.first_error;
    EXPECT_NE(svc.replica(i).server().zone().find(Name::parse("host.corp.example."),
                                                  RRType::kA),
              nullptr);
  }
}

TEST_P(AllProtocolsService, UpdateSucceedsWithCorruptedReplica) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.sig_protocol = GetParam();
  opt.corrupted = {0};
  opt.corruption_mode = CorruptionMode::kFlipShares;
  auto svc = make_service(opt);
  auto r = svc.add_record(Name::parse("host.corp.example."), "10.1.2.3");
  ASSERT_TRUE(r.ok);
  svc.settle();
  for (unsigned i = 1; i < svc.n(); ++i) {
    auto verify = dns::verify_zone(svc.replica(i).server().zone());
    EXPECT_TRUE(verify.ok) << "replica " << i << ": " << verify.first_error;
  }
}

TEST(Service, DeleteComputesTwoSignatures) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  auto r = svc.delete_record(Name::parse("mail.corp.example."));
  ASSERT_TRUE(r.ok);
  svc.settle();
  EXPECT_EQ(svc.replica(1).signatures_computed(), 2u);
  EXPECT_EQ(svc.replica(1).server().zone().find(Name::parse("mail.corp.example."),
                                                RRType::kA),
            nullptr);
}

TEST(Service, AddThenQueryReturnsSignedNewRecord) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  ASSERT_TRUE(svc.add_record(Name::parse("fresh.corp.example."), "10.9.9.9").ok);
  auto r = svc.query(Name::parse("fresh.corp.example."), RRType::kA);
  ASSERT_TRUE(r.ok);  // acceptability check => SIG verified under zone key
  bool has_sig = false;
  for (const auto& rr : r.response.answers) has_sig |= rr.type == RRType::kSIG;
  EXPECT_TRUE(has_sig);
}

TEST(Service, NxdomainCarriesVerifiableDenial) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  auto r = svc.query(Name::parse("ghost.corp.example."), RRType::kA);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.response.rcode, dns::Rcode::kNxDomain);
  bool has_nxt = false;
  for (const auto& rr : r.response.authority) has_nxt |= rr.type == RRType::kNXT;
  EXPECT_TRUE(has_nxt);
}

TEST(Service, StateMachineReplicationKeepsReplicasIdentical) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  ASSERT_TRUE(svc.add_record(Name::parse("a.corp.example."), "10.0.0.1").ok);
  ASSERT_TRUE(svc.add_record(Name::parse("b.corp.example."), "10.0.0.2").ok);
  ASSERT_TRUE(svc.delete_record(Name::parse("a.corp.example.")).ok);
  ASSERT_TRUE(svc.add_record(Name::parse("c.corp.example."), "10.0.0.3").ok);
  svc.settle();
  const std::string reference = svc.replica(0).server().zone().to_text();
  for (unsigned i = 1; i < svc.n(); ++i) {
    EXPECT_EQ(svc.replica(i).server().zone().to_text(), reference) << "replica " << i;
  }
}

TEST(Service, ConcurrentUpdatesAreBatchedIntoFewerRounds) {
  // Group commit at the gateway: k updates issued concurrently must all
  // apply (on every replica, in one total order), but ride through atomic
  // broadcast in strictly fewer than k rounds — the first submits alone,
  // and everything that queued behind that in-flight round leaves as one
  // batch payload when the round's digest comes back.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  constexpr unsigned kOps = 6;
  std::vector<dns::Message> updates;
  for (unsigned i = 0; i < kOps; ++i) updates.push_back(add_update({"h" + std::to_string(i)}));
  EXPECT_EQ(send_concurrently(svc, std::move(updates)), kOps);
  svc.settle();

  // Every update landed on every replica, and the copies stayed identical.
  const std::string reference = svc.replica(0).server().zone().to_text();
  for (unsigned i = 0; i < kOps; ++i) {
    EXPECT_NE(reference.find("h" + std::to_string(i)), std::string::npos)
        << "update " << i << " missing from the zone";
  }
  for (unsigned i = 1; i < svc.n(); ++i) {
    EXPECT_EQ(svc.replica(i).server().zone().to_text(), reference)
        << "replica " << i;
  }

  // Fewer abcast rounds than updates, and at least one true batch payload
  // was executed (both sides of the group-commit machinery engaged).
  EXPECT_LT(svc.replica(0).abcast().delivered_count(), kOps);
  EXPECT_GE(
      svc.replica(0).metrics().counter_value("replica.update_batches"), 1u);
}

TEST(Service, UpdateBatchCountersCoverSingleAndBatchedPayloads) {
  // Every executed update payload is one batch: a lone update travels as a
  // single payload and counts as a batch of one, a group commit as one batch
  // of its size. So the histogram's count equals replica.update_batches and
  // its sum equals the number of updates, on every replica.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  const auto expect_counters = [&](std::uint64_t batches, std::uint64_t updates) {
    for (unsigned i = 0; i < svc.n(); ++i) {
      auto& m = svc.replica(i).metrics();
      EXPECT_EQ(m.counter_value("replica.update_batches"), batches) << "replica " << i;
      EXPECT_EQ(m.histogram("replica.update_batch_size").count(), batches)
          << "replica " << i;
      EXPECT_EQ(m.histogram("replica.update_batch_size").sum(), updates)
          << "replica " << i;
    }
  };

  ASSERT_TRUE(svc.add_record(Name::parse("solo.corp.example."), "10.0.0.9").ok);
  svc.settle();
  expect_counters(1, 1);

  constexpr unsigned kOps = 6;
  std::vector<dns::Message> updates;
  for (unsigned i = 0; i < kOps; ++i) updates.push_back(add_update({"b" + std::to_string(i)}));
  ASSERT_EQ(send_concurrently(svc, std::move(updates)), kOps);
  svc.settle();
  const std::uint64_t batches =
      svc.replica(0).metrics().counter_value("replica.update_batches");
  EXPECT_GT(batches, 2u);         // the solo update, then the first of the six alone
  EXPECT_LT(batches, 1u + kOps);  // ...and at least one true batch
  expect_counters(batches, 1 + kOps);
}

TEST(Service, G2PrimeGatewayMuteClientRetriesNextServer) {
  // Pragmatic liveness: the gateway ignores the client; dig's timeout kicks
  // in and the next authoritative server answers (§3.4).
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.corrupted = {1};  // the default gateway
  opt.corruption_mode = CorruptionMode::kMute;
  opt.client_timeout = 1.0;
  auto svc = make_service(opt);
  auto r = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.tries, 2u);
  EXPECT_GT(r.latency, 1.0);  // one timeout elapsed
}

TEST(Service, G1PrimeStaleReplayFoolsPragmaticClient) {
  // The §3.4 replay weakness: a corrupted gateway may serve data that was
  // valid once. The pragmatic client accepts it (G1' only).
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.corrupted = {1};
  opt.corruption_mode = CorruptionMode::kStaleReplay;
  auto svc = make_service(opt);
  // Seed the stale cache, then change the record.
  auto first = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(svc.delete_record(Name::parse("www.corp.example.")).ok);
  ASSERT_TRUE(svc.add_record(Name::parse("www.corp.example."), "203.0.113.99").ok);
  auto stale = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(stale.ok);  // accepted: signatures verify...
  ASSERT_FALSE(stale.response.answers.empty());
  // ...but the data is the old address, not 203.0.113.99.
  EXPECT_EQ(dns::rdata_to_text(RRType::kA, stale.response.answers[0].rdata),
            "192.0.2.80");
}

TEST(Service, G1VotingClientDefeatsStaleReplay) {
  // The modified client of §3.3 takes a majority: one stale replica cannot
  // outvote t+1 honest ones (G1, strong correctness).
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.client_mode = ClientMode::kVoting;
  opt.corrupted = {1};
  opt.corruption_mode = CorruptionMode::kStaleReplay;
  auto svc = make_service(opt);
  auto first = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(svc.delete_record(Name::parse("www.corp.example.")).ok);
  ASSERT_TRUE(svc.add_record(Name::parse("www.corp.example."), "203.0.113.99").ok);
  auto fresh = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(fresh.ok);
  ASSERT_FALSE(fresh.response.answers.empty());
  EXPECT_EQ(dns::rdata_to_text(RRType::kA, fresh.response.answers[0].rdata),
            "203.0.113.99");
}

TEST(Service, VotingClientWorksOnInternet7) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kInternet7;
  opt.client_mode = ClientMode::kVoting;
  opt.corrupted = {0, 5};  // Zurich + Austin, the paper's (7,2) corruption
  auto svc = make_service(opt);
  auto r = svc.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.response.answers.empty());
}

TEST(Service, Internet7UpdateWithTwoCorruptions) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kInternet7;
  opt.sig_protocol = threshold::SigProtocol::kOptTE;
  opt.corrupted = {0, 5};
  auto svc = make_service(opt);
  auto r = svc.add_record(Name::parse("host.corp.example."), "10.7.7.7");
  ASSERT_TRUE(r.ok);
  svc.settle();
  auto verify = dns::verify_zone(svc.replica(1).server().zone());
  EXPECT_TRUE(verify.ok) << verify.first_error;
}

TEST(Service, TsigRequiredRejectsUnsignedUpdates) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.require_tsig = true;
  auto svc = make_service(opt);
  // add_record signs with the configured key: succeeds.
  ASSERT_TRUE(svc.add_record(Name::parse("ok.corp.example."), "10.0.0.1").ok);
  // A hand-built unsigned update: refused.
  dns::Message update;
  update.opcode = dns::Opcode::kUpdate;
  update.questions.push_back({kOrigin, RRType::kSOA, dns::RRClass::kIN});
  dns::ResourceRecord rr;
  rr.name = Name::parse("evil.corp.example.");
  rr.type = RRType::kA;
  rr.ttl = 300;
  rr.rdata = dns::ARdata::from_text("10.6.6.6").encode();
  update.updates().push_back(rr);
  bool done = false;
  Client::Result result;
  // Bypass the service helper (which would TSIG-sign) and go via the client.
  svc.client().send_update(std::move(update), [&](Client::Result r) {
    result = std::move(r);
    done = true;
  });
  while (!done && svc.sim().step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.response.rcode, dns::Rcode::kRefused);
  svc.settle();
  EXPECT_FALSE(
      svc.replica(1).server().zone().name_exists(Name::parse("evil.corp.example.")));
}

TEST(Service, UnsignedZoneSkipsSignatures) {
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.zone_signed = false;
  opt.verify_responses = false;
  auto svc = make_service(opt);
  auto r = svc.add_record(Name::parse("plain.corp.example."), "10.0.0.1");
  ASSERT_TRUE(r.ok);
  svc.settle();
  EXPECT_EQ(svc.replica(1).signatures_computed(), 0u);
}

TEST(Service, ReadsWithoutDisseminationAreFast) {
  // §3.4 last paragraph: rarely-updated zones can serve reads directly.
  ServiceOptions direct_opt;
  direct_opt.topology = sim::Topology::kInternet4;
  direct_opt.disseminate_reads = false;
  auto direct = make_service(direct_opt);
  ServiceOptions abcast_opt;
  abcast_opt.topology = sim::Topology::kInternet4;
  auto through = make_service(abcast_opt);
  auto fast = direct.query(Name::parse("www.corp.example."), RRType::kA);
  auto slow = through.query(Name::parse("www.corp.example."), RRType::kA);
  ASSERT_TRUE(fast.ok);
  ASSERT_TRUE(slow.ok);
  EXPECT_LT(fast.latency, slow.latency / 3);
}

TEST(Service, BasicSlowerThanOptimizedProtocols) {
  // The core performance claim of Table 2 at (4,0)*.
  auto run = [](threshold::SigProtocol protocol) {
    ServiceOptions opt;
    opt.topology = sim::Topology::kLan4;
    opt.sig_protocol = protocol;
    auto svc = ReplicatedService(std::move(opt), kOrigin, kZoneText);
    return svc.add_record(Name::parse("bench.corp.example."), "10.0.0.1").latency;
  };
  const double basic = run(threshold::SigProtocol::kBasic);
  const double optproof = run(threshold::SigProtocol::kOptProof);
  const double optte = run(threshold::SigProtocol::kOptTE);
  EXPECT_GT(basic, 2 * optproof);
  EXPECT_GT(basic, 2 * optte);
}

TEST(Service, SignaturesAreUniqueAcrossReplicas) {
  // Threshold RSA gives a *unique* signature: every replica must hold the
  // byte-identical SIG records (this is what makes voting trivial).
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  ASSERT_TRUE(svc.add_record(Name::parse("uniq.corp.example."), "10.0.0.1").ok);
  svc.settle();
  const dns::RRset* ref =
      svc.replica(0).server().zone().find(Name::parse("uniq.corp.example."), RRType::kSIG);
  ASSERT_NE(ref, nullptr);
  for (unsigned i = 1; i < 4; ++i) {
    const dns::RRset* other = svc.replica(i).server().zone().find(
        Name::parse("uniq.corp.example."), RRType::kSIG);
    ASSERT_NE(other, nullptr) << i;
    EXPECT_EQ(other->rdatas, ref->rdatas) << i;
  }
}

TEST(Service, UpdateWithMoreThan256SigTasksKeepsSessionIdsApart) {
  // An add of N new names needs about 2N+2 SIG tasks (N RRsets, N new NXTs,
  // the predecessor NXT, the SOA). With an 8-bit task index in the session
  // id, tasks 256+ of a 130-name add reused the next update's ids.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.client_timeout = 1000;  // ~260 sequential signing rounds
  auto svc = make_service(opt);
  std::vector<std::string> hosts;
  for (int i = 0; i < 130; ++i) hosts.push_back("bulk" + std::to_string(i));
  ASSERT_TRUE(svc.send_update(add_update(hosts)).ok);
  ASSERT_TRUE(svc.add_record(Name::parse("after.corp.example."), "10.0.0.9").ok);
  svc.settle();
  EXPECT_GT(svc.replica(0).signatures_computed(), 256u);
  const std::string reference = svc.replica(0).server().zone().to_text();
  for (unsigned i = 0; i < svc.n(); ++i) {
    const auto& zone = svc.replica(i).server().zone();
    auto verify = dns::verify_zone(zone);
    EXPECT_TRUE(verify.ok) << "replica " << i << ": " << verify.first_error;
    EXPECT_EQ(zone.to_text(), reference) << "replica " << i;
    EXPECT_NE(zone.find(Name::parse("bulk129.corp.example."), RRType::kA), nullptr);
    EXPECT_NE(zone.find(Name::parse("after.corp.example."), RRType::kA), nullptr);
    const auto& m = svc.replica(i).metrics();
    EXPECT_EQ(m.counter_value("threshold.share.verify_fail"), 0u) << "replica " << i;
    EXPECT_EQ(m.counter_value("threshold.optimistic.miss"), 0u) << "replica " << i;
  }
  std::set<std::uint64_t> ids;
  for (std::uint64_t update = 1; update <= 2; ++update) {
    for (std::size_t index = 0; index < 300; ++index) {
      ids.insert(ReplicaNode::session_id(update, index));
    }
  }
  EXPECT_EQ(ids.size(), 600u);
}

TEST(Service, LoneUpdateAndBatchEachCommitOnce) {
  // Every update runs as a batch: the zone generation is bumped (at the
  // batch's first change) and zone_committed fires (once its SIGs are
  // installed) once per executed batch — a lone add (apply plus four SIGs)
  // included — never per mutation or per installed signature. While the
  // batch signs, no answer leaves: reads wait for its commit point.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.disseminate_reads = false;
  std::vector<std::vector<std::uint64_t>> commits(4);
  opt.zone_committed = [&commits](unsigned replica, std::uint64_t gen) {
    commits.at(replica).push_back(gen);
  };
  auto svc = make_service(opt);
  std::vector<std::uint64_t> base;
  for (unsigned i = 0; i < svc.n(); ++i) base.push_back(svc.replica(i).zone_generation_value());

  ReplicaNode& gateway = svc.replica(1);
  const std::uint64_t sigs0 = gateway.signatures_computed();
  const auto reads = [&] { return gateway.metrics().counter_value("replica.reads"); };
  const std::uint64_t reads0 = reads();
  const util::Bytes read =
      dns::Message::make_query(0xF000, Name::parse("www.corp.example."), RRType::kA).encode();
  bool done = false;
  unsigned held = 0;
  svc.client().send_update(add_update({"solo"}), [&](Client::Result r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  bool early = false;
  while (!done && svc.sim().step()) {
    const std::uint64_t installed = gateway.signatures_computed() - sigs0;
    if (installed == 0 || installed >= 4) continue;
    // Mid-batch: the zone holds the add, not yet all of its SIGs.
    gateway.on_client_request(svc.n(), read);
    ++held;
    early |= reads() != reads0;
  }
  ASSERT_TRUE(done);
  svc.settle();
  EXPECT_GT(held, 0u);
  EXPECT_FALSE(early) << "a read was answered mid-batch";
  EXPECT_EQ(reads(), reads0 + held) << "a held read was never answered";
  for (unsigned i = 0; i < svc.n(); ++i) {
    EXPECT_EQ(svc.replica(i).zone_generation_value(), base[i] + 1) << "replica " << i;
    EXPECT_EQ(commits[i], std::vector<std::uint64_t>{base[i] + 1}) << "replica " << i;
  }

  std::vector<dns::Message> updates;
  for (int i = 0; i < 6; ++i) updates.push_back(add_update({"b" + std::to_string(i)}));
  ASSERT_EQ(send_concurrently(svc, std::move(updates)), 6u);
  svc.settle();
  for (unsigned i = 0; i < svc.n(); ++i) {
    const std::uint64_t batches =
        svc.replica(i).metrics().counter_value("replica.update_batches");
    EXPECT_LT(batches, 1u + 6u) << "replica " << i;  // at least one true batch
    EXPECT_EQ(svc.replica(i).zone_generation_value(), base[i] + batches) << "replica " << i;
    EXPECT_EQ(commits[i].size(), batches) << "replica " << i;
    EXPECT_EQ(commits[i].back(), base[i] + batches) << "replica " << i;
  }
}

TEST(Service, ReadsAndTransfersDuringSigningWaitForTheCommitPoint) {
  // A direct read or a transfer that reaches a replica while an update batch
  // signs is answered at the batch's commit point, right after its last SIG
  // is installed, from the zone it committed. Answered at once, the reads
  // would carry the new NXT and SOA without their SIGs.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.disseminate_reads = false;
  auto svc = make_service(opt);
  ReplicaNode& replica = svc.replica(1);
  const sim::NodeId client_node = svc.n();
  const dns::Zone committed = replica.server().zone();
  const dns::SoaRdata old_soa = *committed.soa();

  // Replica 1's answers to the requests sent below (ids from 0xF000); the
  // client's own traffic passes through.
  std::map<std::uint16_t, dns::Message> answers;
  svc.net().set_handler(client_node, [&](sim::NodeId from, util::Bytes msg) {
    dns::Message m = dns::Message::decode(msg);
    if (from == 1 && m.id >= 0xF000) {
      answers.emplace(m.id, std::move(m));
      return;
    }
    svc.client().on_response(static_cast<unsigned>(from), msg);
  });
  std::uint16_t next_id = 0xF000;
  const auto ask = [&](dns::Message q) {
    q.id = next_id++;
    replica.on_client_request(client_node, q.encode());
  };
  const auto query = [](const char* name, RRType type) {
    return dns::Message::make_query(0, Name::parse(name), type);
  };

  // "new" lands between "mail" and "ns1": the NXT at both changes.
  bool done = false;
  svc.client().send_update(add_update({"new"}), [&](Client::Result r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  const std::uint64_t sigs0 = replica.signatures_computed();
  while (replica.signatures_computed() == sigs0 && svc.sim().step()) {
  }
  ASSERT_LT(replica.signatures_computed(), sigs0 + 4) << "the add was not caught mid-batch";
  ASSERT_NE(replica.server().zone().to_wire(), committed.to_wire());

  const auto reads = [&] { return replica.metrics().counter_value("replica.reads"); };
  const std::uint64_t reads0 = reads();
  ask(query("new.corp.example.", RRType::kA));        // 0xF000 positive
  ask(query("mz.corp.example.", RRType::kA));         // 0xF001 NXT at "mail"
  ask(query("nf.corp.example.", RRType::kA));         // 0xF002 NXT at "new"
  ask(query("corp.example.", RRType::kAXFR));         // 0xF003 whole AXFR
  ask(dns::make_ixfr_query(0, kOrigin, old_soa));     // 0xF004 IXFR, old serial
  std::vector<dns::Message> chunked;                  // the runtime's AXFR path
  replica.at_commit([&] {
    chunked = replica.server().answer_xfr(query("corp.example.", RRType::kAXFR), 600);
  });
  bool early = false;
  while (svc.sim().step() && replica.signatures_computed() < sigs0 + 4) {
    early |= reads() != reads0 || !chunked.empty();
  }
  EXPECT_FALSE(early) << "answered before the batch's last SIG";
  // The step that installed the last SIG also released everything held.
  EXPECT_EQ(reads(), reads0 + 5);
  EXPECT_GT(chunked.size(), 1u);
  while (!done && svc.sim().step()) {
  }
  ASSERT_TRUE(done);
  svc.settle();
  const dns::Zone& zone = replica.server().zone();
  const dns::SoaRdata new_soa = *zone.soa();
  EXPECT_EQ(new_soa.serial, old_soa.serial + 1);

  ASSERT_EQ(answers.size(), 5u);
  for (const auto& [id, m] : answers) {
    if (id > 0xF002) continue;
    EXPECT_TRUE(Client::response_acceptable(m, svc.zone_public_key()))
        << "answer " << id << " carries an RRset its SIGs do not cover";
    EXPECT_EQ(m.rcode, id == 0xF000 ? dns::Rcode::kNoError : dns::Rcode::kNxDomain) << id;
  }
  // AXFR, whole and chunked: the committed zone, verifying.
  dns::XfrAssembler assembler;
  for (const dns::Message& e : chunked) assembler.feed(e);
  ASSERT_EQ(assembler.state(), dns::XfrAssembler::State::kDone);
  const dns::Message& whole = answers.at(0xF003);
  for (const dns::Message* axfr : {&whole, &assembler.combined()}) {
    dns::Zone fresh(kOrigin);
    ASSERT_EQ(dns::apply_xfr_response(fresh, *axfr), dns::XfrOutcome::kReplacedAxfr);
    EXPECT_EQ(fresh.to_wire(), zone.to_wire());
    const auto verify = dns::verify_zone(fresh, svc.zone_public_key());
    EXPECT_TRUE(verify.ok) << verify.first_error;
  }
  // The IXFR from the old serial: the diff, which brings a secondary at the
  // old serial to one that verifies.
  dns::Zone secondary = committed;
  ASSERT_EQ(dns::apply_xfr_response(secondary, answers.at(0xF004)),
            dns::XfrOutcome::kAppliedIxfr);
  EXPECT_EQ(secondary.soa()->serial, new_soa.serial);
  EXPECT_NE(secondary.find(Name::parse("new.corp.example."), RRType::kA), nullptr);
  const auto verify = dns::verify_zone(secondary, svc.zone_public_key());
  EXPECT_TRUE(verify.ok) << verify.first_error;
  // Between batches nothing is held: an up-to-date IXFR is one SOA at once.
  ask(dns::make_ixfr_query(0, kOrigin, new_soa));
  EXPECT_EQ(reads(), reads0 + 6);
  svc.settle();
  ASSERT_EQ(answers.count(0xF005), 1u);
  ASSERT_EQ(answers.at(0xF005).answers.size(), 1u);
  EXPECT_EQ(dns::SoaRdata::decode(answers.at(0xF005).answers[0].rdata).serial, new_soa.serial);
  EXPECT_EQ(replica.metrics().counter_value("replica.held_dropped"), 0u);
}

TEST(Service, HeldReadsAreBoundedAndCounted) {
  // The hold list has a fixed cap: past kMaxHeld a request is dropped and
  // counted (its client retries), and the rest are answered at the commit.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  opt.disseminate_reads = false;
  auto svc = make_service(opt);
  ReplicaNode& replica = svc.replica(1);
  bool done = false;
  svc.client().send_update(add_update({"new"}), [&](Client::Result r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  const std::uint64_t sigs0 = replica.signatures_computed();
  while (replica.signatures_computed() == sigs0 && svc.sim().step()) {
  }
  ASSERT_LT(replica.signatures_computed(), sigs0 + 4);
  const auto reads = [&] { return replica.metrics().counter_value("replica.reads"); };
  const std::uint64_t reads0 = reads();
  const util::Bytes read =
      dns::Message::make_query(0xF000, Name::parse("www.corp.example."), RRType::kA).encode();
  for (std::size_t i = 0; i < ReplicaNode::kMaxHeld + 10; ++i) {
    replica.on_client_request(svc.n(), read);
  }
  EXPECT_EQ(reads(), reads0);
  EXPECT_EQ(replica.metrics().counter_value("replica.held_dropped"), 10u);
  while (!done && svc.sim().step()) {
  }
  ASSERT_TRUE(done);
  svc.settle();
  EXPECT_EQ(reads(), reads0 + ReplicaNode::kMaxHeld);
}

TEST(Service, ForgedFutureSigningSessionsStayBounded) {
  // A Byzantine peer can name any session id. Shares for sessions a replica
  // has not reached are buffered only within fixed bounds — pre-fix every
  // distinct future sid got its own entry — and an honest update still
  // completes afterwards.
  ServiceOptions opt;
  opt.topology = sim::Topology::kLan4;
  auto svc = make_service(opt);
  ReplicaNode& target = svc.replica(2);
  constexpr std::uint8_t kSigningFrame = 0x02;  // replica-to-replica frame tag
  const auto forged = [&](std::uint64_t sid) {
    util::Bytes msg{kSigningFrame};
    const util::Bytes body = threshold::SigningSession::encode_final(sid, bn::BigInt(12345));
    msg.insert(msg.end(), body.begin(), body.end());
    target.on_replica_message(0, msg);
  };
  // Distinct sids over the next 400 updates (past the retain window, too).
  for (std::uint64_t k = 0; k < 100000; ++k) forged(ReplicaNode::session_id(1 + k % 400, k / 400));
  EXPECT_LE(target.buffered_signing_messages(), ReplicaNode::kMaxBufferedSessions);
  // One session's messages are capped as well: here the next update's first.
  for (int k = 0; k < 1000; ++k) forged(ReplicaNode::session_id(1, 0));
  EXPECT_LE(target.buffered_signing_messages(),
            ReplicaNode::kMaxBufferedSessions + ReplicaNode::kBufferedPerPeer * svc.n());

  ASSERT_TRUE(svc.add_record(Name::parse("honest.corp.example."), "10.0.0.7").ok);
  svc.settle();
  for (unsigned i = 0; i < svc.n(); ++i) {
    const auto& zone = svc.replica(i).server().zone();
    auto verify = dns::verify_zone(zone);
    EXPECT_TRUE(verify.ok) << "replica " << i << ": " << verify.first_error;
    EXPECT_NE(zone.find(Name::parse("honest.corp.example."), RRType::kA), nullptr)
        << "replica " << i;
  }
}

}  // namespace
}  // namespace sdns::core
