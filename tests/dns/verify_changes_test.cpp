// The O(change) trust gate (verify_zone_changes) against the full one
// (verify_zone). A primary AuthoritativeServer commits signed updates; a
// secondary applies each IXFR under a capture, as an edge does, and judges
// it both ways. Tampered diffs come from a copy of the primary whose zone is
// doctored after the SIGs are installed and before the journal closes, so
// the IXFR carries exactly the doctored records. Every rejected diff is
// rolled back and must leave the secondary byte-identical.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "crypto/rsa.hpp"
#include "dns/dnssec.hpp"
#include "dns/server.hpp"
#include "dns/xfr.hpp"
#include "util/rng.hpp"

namespace sdns::dns {
namespace {

using util::Rng;

const crypto::RsaPrivateKey& zone_key() {
  static const crypto::RsaPrivateKey key = [] {
    Rng rng(2000);
    return crypto::rsa_generate(rng, 512);
  }();
  return key;
}

const crypto::RsaPrivateKey& other_key() {
  static const crypto::RsaPrivateKey key = [] {
    Rng rng(2001);
    return crypto::rsa_generate(rng, 512);
  }();
  return key;
}

util::Bytes sign_with_zone_key(util::BytesView data) {
  return crypto::rsa_sign_sha1(zone_key(), data);
}

const Name kOrigin = Name::parse("chg.example.");
constexpr std::uint32_t kInception = 1000;
constexpr std::uint32_t kExpiration = 1000000;

AuthoritativeServer make_primary() {
  Zone z = Zone::from_text(kOrigin, R"(
@    IN SOA ns.chg.example. admin.chg.example. 1 7200 1200 604800 600
@    IN NS  ns.chg.example.
d    IN A   192.0.2.4
ns   IN A   192.0.2.53
www  IN A   192.0.2.80
)");
  sign_zone(z, zone_key().pub, kInception, kExpiration, sign_with_zone_key);
  return AuthoritativeServer(std::move(z));
}

Message host_update(const Name& host, bool add, const std::string& addr = "10.0.0.1") {
  Message m;
  m.opcode = Opcode::kUpdate;
  m.questions.push_back({kOrigin, RRType::kSOA, RRClass::kIN});
  ResourceRecord rr;
  rr.name = host;
  rr.type = RRType::kA;
  if (add) {
    rr.ttl = 300;
    rr.rdata = ARdata::from_text(addr).encode();
  } else {
    rr.klass = RRClass::kANY;  // delete the RRset
  }
  m.updates().push_back(rr);
  return m;
}

// ---- doctoring a zone between the SIG installs and the journal close ----

/// `committed` is the primary's zone as it was before the update.
using Tamper = std::function<void(Zone&, const Name& host, const Zone& committed)>;

/// Replace the RRset's SIG at its owner with a genuine one under the zone
/// key, so that only the check under test can catch the doctoring.
void resign(Zone& z, const Name& owner, RRType type) {
  const RRset* rrset = z.find(owner, type);
  if (!rrset) return;
  const RRset copy = *rrset;
  z.remove_sigs(owner, type);
  z.add_record(sign_rrset(copy, kOrigin, 0, kInception, kExpiration, sign_with_zone_key));
}

void forge_sig(Zone& z, const Name& host, const Zone&) {
  const RRset* sigs = z.find(host, RRType::kSIG);
  if (!sigs) return;
  const RRset copy = *sigs;
  for (const auto& rd : copy.rdatas) {
    SigRdata sig = SigRdata::decode(rd);
    if (sig.type_covered != RRType::kA) continue;
    sig.signature.back() ^= 0x01;
    z.remove_record(host, RRType::kSIG, rd);
    z.add_record({host, RRType::kSIG, RRClass::kIN, copy.ttl, sig.encode()});
    return;
  }
}

void drop_sig(Zone& z, const Name& host, const Zone&) { z.remove_sigs(host, RRType::kA); }

/// A validly signed NXT that skips the owner's real successor.
void misdirect_nxt(Zone& z, const Name& host, const Zone&) {
  const RRset* nxt = z.find(host, RRType::kNXT);
  if (!nxt) return;
  const std::uint32_t ttl = nxt->ttl;
  NxtRdata rd = NxtRdata::decode(nxt->rdatas.front());
  rd.next = rd.next == kOrigin ? kOrigin.child("elsewhere") : kOrigin;
  z.remove_rrset(host, RRType::kNXT);
  z.add_record({host, RRType::kNXT, RRClass::kIN, ttl, rd.encode()});
  resign(z, host, RRType::kNXT);
}

/// Put back the NXT (and its SIG) the predecessor had before the update, so
/// the diff carries nothing at the predecessor at all.
void unrepair_predecessor(Zone& z, const Name& host, const Zone& committed) {
  const Name* pred = z.cyclic_predecessor(host);
  if (!pred) return;
  const Name owner = *pred;
  const RRset* old_nxt = committed.find(owner, RRType::kNXT);
  const RRset* old_sigs = committed.find(owner, RRType::kSIG);
  if (!old_nxt || !old_sigs) return;
  const RRset nxt = *old_nxt;
  const RRset sigs = *old_sigs;
  z.remove_rrset(owner, RRType::kNXT);
  z.remove_sigs(owner, RRType::kNXT);
  for (const auto& rr : nxt.to_records()) z.add_record(rr);
  for (const auto& rr : sigs.to_records()) {
    if (SigRdata::decode(rr.rdata).type_covered == RRType::kNXT) z.add_record(rr);
  }
}

/// A different zone key at the apex, its KEY RRset signed by the real key so
/// that only the trust-anchor check can catch it.
void swap_key(Zone& z, const Name&, const Zone&) {
  const RRset* key = z.find(kOrigin, RRType::kKEY);
  if (!key) return;
  const std::uint32_t ttl = key->ttl;
  z.remove_rrset(kOrigin, RRType::kKEY);
  z.add_record(make_zone_key_record(kOrigin, ttl, other_key().pub));
  resign(z, kOrigin, RRType::kKEY);
}

void strip_nxt(Zone& z, const Name& host, const Zone&) {
  z.remove_rrset(host, RRType::kNXT);
  z.remove_sigs(host, RRType::kNXT);
}

// ---- one transfer, judged both ways ----

struct Verdict {
  bool applied = false;  ///< the IXFR carried a diff and applied cleanly
  ZoneVerifyResult changes;
  ZoneVerifyResult full;
};

/// Commit `update` on `primary` (doctored by `tamper` when given), then
/// bring `secondary` up to date by IXFR under a capture. A diff either gate
/// rejects is rolled back, and the secondary must come back byte-identical.
Verdict transfer(AuthoritativeServer& primary, Zone& secondary, const Message& update,
                 const Tamper& tamper = nullptr) {
  const Name host = update.updates().front().name;
  const Zone committed = primary.zone();
  const UpdateResult res = primary.apply_update(update, kInception + 1);
  EXPECT_EQ(res.rcode, Rcode::kNoError);
  for (const auto& task : res.sig_tasks) {
    primary.install_signature(task, sign_with_zone_key(task.data));
  }
  if (tamper) tamper(primary.zone(), host, committed);
  primary.finalize_journal();

  Verdict v;
  const Message ixfr = primary.answer_query(make_ixfr_query(1, kOrigin, *secondary.soa()));
  if (xfr_format(ixfr) != XfrOutcome::kAppliedIxfr) return v;
  const util::Bytes before = secondary.to_wire();
  secondary.begin_capture();
  v.applied = apply_xfr_response(secondary, ixfr) == XfrOutcome::kAppliedIxfr;
  Zone::PreImages touched = *secondary.end_capture();
  EXPECT_TRUE(v.applied);
  v.changes = verify_zone_changes(secondary, touched, zone_key().pub);
  v.full = verify_zone(secondary, zone_key().pub);
  if (!v.changes.ok || !v.full.ok) {
    secondary.rollback(std::move(touched));
    EXPECT_EQ(secondary.to_wire(), before) << "rollback left the zone changed";
  }
  return v;
}

/// The zone's records as a set: an IXFR keeps every record but not the
/// order of rdatas within an RRset.
std::multiset<std::string> records_of(const Zone& z) {
  std::multiset<std::string> out;
  for (const auto& rr : z.all_records()) out.insert(rr.to_text());
  return out;
}

/// A primary and an in-sync secondary.
struct Pair {
  AuthoritativeServer primary = make_primary();
  Zone secondary = primary.zone();
};

void expect_rejected(const Verdict& v) {
  ASSERT_TRUE(v.applied);
  EXPECT_FALSE(v.changes.ok) << "O(change) gate accepted a bad diff";
  EXPECT_FALSE(v.full.ok) << "full verify accepted a bad diff";
}

TEST(VerifyChanges, HonestDiffsAreAcceptedAndMatchTheFullVerify) {
  Pair p;
  for (const auto& [host, add] : {std::pair{"b", true}, std::pair{"zz", true},
                                  std::pair{"www", false}, std::pair{"zz", false}}) {
    const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child(host), add));
    ASSERT_TRUE(v.applied) << host;
    EXPECT_TRUE(v.changes.ok) << host << ": " << v.changes.first_error;
    EXPECT_TRUE(v.full.ok) << host << ": " << v.full.first_error;
    EXPECT_GT(v.changes.verified, 0u);
    EXPECT_LT(v.changes.verified, v.full.verified) << "the O(change) gate walked the zone";
    EXPECT_EQ(records_of(p.secondary), records_of(p.primary.zone())) << host;
  }
}

TEST(VerifyChanges, ForgedSigAtATouchedOwnerIsRejected) {
  Pair p;
  expect_rejected(transfer(p.primary, p.secondary, host_update(kOrigin.child("b"), true),
                           forge_sig));
}

TEST(VerifyChanges, MissingSigAtATouchedOwnerIsRejected) {
  Pair p;
  expect_rejected(transfer(p.primary, p.secondary, host_update(kOrigin.child("b"), true),
                           drop_sig));
}

TEST(VerifyChanges, NxtNamingTheWrongNextIsRejected) {
  Pair p;
  const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child("b"), true),
                             misdirect_nxt);
  expect_rejected(v);
  EXPECT_NE(v.changes.first_error.find("NXT chain broken"), std::string::npos)
      << v.changes.first_error;
}

// The three unrepaired-predecessor cases leave nothing wrong at any touched
// owner: only the predecessor check can catch them.
TEST(VerifyChanges, UnrepairedPredecessorIsRejected) {
  Pair p;  // "e" lands between "d" and "ns"; the NXT at "d" goes stale
  const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child("e"), true),
                             unrepair_predecessor);
  expect_rejected(v);
  EXPECT_NE(v.changes.first_error.find("NXT chain broken at d.chg.example."),
            std::string::npos)
      << v.changes.first_error;
}

TEST(VerifyChanges, UnrepairedPredecessorOfANameAddedAfterTheLastIsRejected) {
  Pair p;  // "zz" follows "www", whose NXT still wraps to the apex
  const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child("zz"), true),
                             unrepair_predecessor);
  expect_rejected(v);
  EXPECT_NE(v.changes.first_error.find("www.chg.example."), std::string::npos)
      << v.changes.first_error;
}

TEST(VerifyChanges, UnrepairedPredecessorOfTheDeletedLastNameIsRejected) {
  Pair p;  // "www" is last; "ns" must now wrap to the apex but still names it
  const Verdict v = transfer(p.primary, p.secondary,
                             host_update(kOrigin.child("www"), false), unrepair_predecessor);
  expect_rejected(v);
  EXPECT_NE(v.changes.first_error.find("ns.chg.example."), std::string::npos)
      << v.changes.first_error;
}

TEST(VerifyChanges, SwappedApexKeyIsRejected) {
  Pair p;
  const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child("b"), true),
                             swap_key);
  expect_rejected(v);
  EXPECT_NE(v.changes.first_error.find("trusted zone key"), std::string::npos)
      << v.changes.first_error;
}

TEST(VerifyChanges, NewOwnerWithoutNxtIsRejected) {
  Pair p;
  const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child("b"), true),
                             strip_nxt);
  expect_rejected(v);
  EXPECT_NE(v.changes.first_error.find("missing NXT at b.chg.example."), std::string::npos)
      << v.changes.first_error;
}

TEST(VerifyChanges, TheSecondaryRetriesFromItsOldSerialAfterARollback) {
  Pair p;
  AuthoritativeServer doctored = p.primary;
  expect_rejected(transfer(doctored, p.secondary, host_update(kOrigin.child("b"), true),
                           forge_sig));
  const Verdict v = transfer(p.primary, p.secondary, host_update(kOrigin.child("b"), true));
  EXPECT_TRUE(v.changes.ok) << v.changes.first_error;
  EXPECT_TRUE(v.full.ok) << v.full.first_error;
  EXPECT_EQ(records_of(p.secondary), records_of(p.primary.zone()));
}

// ---- property: random diffs, random tampers, the two gates agree ----

class VerifyChangesModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifyChangesModel, AgreesWithTheFullVerifyOnEveryDiff) {
  const std::vector<Tamper> tampers = {forge_sig,   drop_sig,  misdirect_nxt,
                                       unrepair_predecessor, swap_key, strip_nxt};
  const std::vector<std::string> hosts = {"a", "b", "d", "m", "ns2", "www", "zz", "zzz"};
  Rng rng(GetParam());
  Pair p;
  std::size_t rejected = 0, accepted = 0;
  for (int step = 0; step < 40; ++step) {
    const Name host = kOrigin.child(hosts[rng.below(hosts.size())]);
    const Message update =
        host_update(host, rng.below(3) != 0, "10.0.0." + std::to_string(1 + rng.below(3)));
    // The honest primary commits the update; a copy taken just before
    // commits it doctored half the time, and the secondary gets its diff.
    AuthoritativeServer doctored = p.primary;
    const bool tamper = rng.below(2) == 0;
    const Tamper& how = tampers[rng.below(tampers.size())];
    const Verdict v = tamper ? transfer(doctored, p.secondary, update, how)
                             : transfer(p.primary, p.secondary, update);
    if (tamper) {
      // Keep the honest primary in step with the doctored one.
      const UpdateResult res = p.primary.apply_update(update, kInception + 1);
      for (const auto& task : res.sig_tasks) {
        p.primary.install_signature(task, sign_with_zone_key(task.data));
      }
      p.primary.finalize_journal();
    }
    if (!v.applied) continue;
    ASSERT_EQ(v.changes.ok, v.full.ok)
        << "step " << step << " " << host.to_string() << ": changes '"
        << v.changes.first_error << "' vs full '" << v.full.first_error << "'";
    (v.full.ok ? accepted : rejected) += 1;
    if (!tamper) {
      ASSERT_TRUE(v.full.ok) << v.full.first_error;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyChangesModel, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- rollback itself ----

TEST(ZoneRollback, RestoresAddedChangedAndErasedOwners) {
  AuthoritativeServer primary = make_primary();
  Zone z = primary.zone();
  const util::Bytes before = z.to_wire();
  z.begin_capture();
  z.add_record({kOrigin.child("new"), RRType::kA, RRClass::kIN, 60,
                ARdata::from_text("10.9.9.9").encode()});
  z.remove_name(kOrigin.child("www"));
  z.bump_serial();
  z.refresh_nxt_chain();
  Zone::PreImages touched = *z.end_capture();
  ASSERT_NE(z.to_wire(), before);
  z.rollback(std::move(touched));
  EXPECT_EQ(z.to_wire(), before);
  EXPECT_TRUE(verify_zone(z, zone_key().pub).ok);
}

}  // namespace
}  // namespace sdns::dns
