// Model-based testing of the RFC 2136 update engine: random sequences of
// adds and deletes are applied both to the AuthoritativeServer and to a
// trivially-correct reference model (a map of record sets); after every
// step the observable zone state must match, and in signed mode completing
// the returned SigTasks must leave a fully verifying zone. The oracle tests
// at the end check the incremental update path (pre-image journal,
// touched-owner NXT repair) against whole-zone recomputation.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "crypto/rsa.hpp"
#include "dns/server.hpp"
#include "dns/xfr.hpp"
#include "util/rng.hpp"

namespace sdns::dns {
namespace {

using util::Rng;

const crypto::RsaPrivateKey& zone_key() {
  static const crypto::RsaPrivateKey key = [] {
    Rng rng(1300);
    return crypto::rsa_generate(rng, 512);
  }();
  return key;
}

const Name kOrigin = Name::parse("model.example.");

Zone base_zone(bool sign) {
  Zone z = Zone::from_text(kOrigin, R"(
@   IN SOA ns.model.example. admin.model.example. 1 7200 1200 604800 600
@   IN NS  ns.model.example.
ns  IN A   192.0.2.53
)");
  if (sign) {
    sign_zone(z, zone_key().pub, 1000, 1000000, [](util::BytesView d) {
      return crypto::rsa_sign_sha1(zone_key(), d);
    });
  }
  return z;
}

// Reference model: name -> set of A-record addresses.
using Model = std::map<std::string, std::set<std::string>>;

struct Op {
  enum Kind { kAdd, kDeleteRecord, kDeleteRRset } kind;
  std::string host;
  std::string address;
};

Op random_op(Rng& rng) {
  Op op;
  const auto pick = rng.below(10);
  op.kind = pick < 5 ? Op::kAdd : pick < 8 ? Op::kDeleteRecord : Op::kDeleteRRset;
  op.host = "h" + std::to_string(rng.below(8));
  op.address = "10.0.0." + std::to_string(1 + rng.below(5));
  return op;
}

Message update_for(const Op& op) {
  Message m;
  m.opcode = Opcode::kUpdate;
  m.questions.push_back({kOrigin, RRType::kSOA, RRClass::kIN});
  ResourceRecord rr;
  rr.name = kOrigin.child(op.host);
  rr.type = RRType::kA;
  switch (op.kind) {
    case Op::kAdd:
      rr.ttl = 300;
      rr.rdata = ARdata::from_text(op.address).encode();
      break;
    case Op::kDeleteRecord:
      rr.klass = RRClass::kNONE;
      rr.ttl = 0;
      rr.rdata = ARdata::from_text(op.address).encode();
      break;
    case Op::kDeleteRRset:
      rr.klass = RRClass::kANY;
      rr.ttl = 0;
      break;
  }
  m.updates().push_back(rr);
  return m;
}

void apply_to_model(Model& model, const Op& op) {
  switch (op.kind) {
    case Op::kAdd:
      model[op.host].insert(op.address);
      break;
    case Op::kDeleteRecord:
      if (auto it = model.find(op.host); it != model.end()) {
        it->second.erase(op.address);
        if (it->second.empty()) model.erase(it);
      }
      break;
    case Op::kDeleteRRset:
      model.erase(op.host);
      break;
  }
}

void expect_match(const AuthoritativeServer& server, const Model& model) {
  // Every model entry exists with exactly the modeled addresses.
  for (const auto& [host, addrs] : model) {
    const RRset* rrset = server.zone().find(kOrigin.child(host), RRType::kA);
    ASSERT_NE(rrset, nullptr) << host;
    std::set<std::string> got;
    for (const auto& rd : rrset->rdatas) got.insert(ARdata::decode(rd).to_text());
    EXPECT_EQ(got, addrs) << host;
  }
  // No extra hosts beyond the model and the base zone.
  for (const auto& name : server.zone().names()) {
    if (name == kOrigin || name == kOrigin.child("ns")) continue;
    ASSERT_EQ(name.label_count(), kOrigin.label_count() + 1) << name.to_string();
    EXPECT_TRUE(model.count(name.label(0))) << name.to_string();
  }
}

class UpdateModel : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateModel, ::testing::Values(1, 2, 3, 4, 5));

TEST_P(UpdateModel, UnsignedZoneMatchesReference) {
  Rng rng(GetParam());
  AuthoritativeServer server(base_zone(false));
  Model model;
  for (int step = 0; step < 120; ++step) {
    const Op op = random_op(rng);
    apply_to_model(model, op);
    auto result = server.apply_update(update_for(op), 5000 + step);
    ASSERT_EQ(result.rcode, Rcode::kNoError) << "step " << step;
    expect_match(server, model);
  }
}

TEST_P(UpdateModel, SignedZoneStaysVerifiableAtEveryStep) {
  Rng rng(100 + GetParam());
  AuthoritativeServer server(base_zone(true));
  Model model;
  for (int step = 0; step < 40; ++step) {
    const Op op = random_op(rng);
    apply_to_model(model, op);
    auto result = server.apply_update(update_for(op), 5000 + step);
    ASSERT_EQ(result.rcode, Rcode::kNoError) << "step " << step;
    for (const auto& task : result.sig_tasks) {
      server.install_signature(task, crypto::rsa_sign_sha1(zone_key(), task.data));
    }
    expect_match(server, model);
    auto verify = verify_zone(server.zone());
    ASSERT_TRUE(verify.ok) << "step " << step << ": " << verify.first_error;
  }
}

TEST_P(UpdateModel, SerialBumpsExactlyOnEffectiveUpdates) {
  Rng rng(200 + GetParam());
  AuthoritativeServer server(base_zone(false));
  Model model;

  for (int step = 0; step < 80; ++step) {
    const Op op = random_op(rng);
    Model before = model;
    apply_to_model(model, op);
    // The server bumps the serial iff the update touched anything. A
    // kDeleteRecord of an absent record or re-add of an existing one is
    // still "touching" per our engine if it names an existing rrset; use the
    // coarse rule: serial never decreases and grows by at most 1 per update.
    const std::uint32_t pre = server.zone().soa()->serial;
    ASSERT_EQ(server.apply_update(update_for(op), 1).rcode, Rcode::kNoError);
    const std::uint32_t post = server.zone().soa()->serial;
    EXPECT_GE(post, pre);
    EXPECT_LE(post - pre, 1u);
    if (before != model) {
      EXPECT_EQ(post, pre + 1) << "step " << step;
    }

  }
}

// ---- oracles for the incremental update path ----

// Every record of the zone keyed by canonical wire: the order IXFR diffs
// are emitted in.
using Snapshot = std::map<std::string, ResourceRecord>;

Snapshot snapshot(const Zone& zone) {
  Snapshot out;
  for (auto& rr : zone.all_records()) {
    util::Writer key;
    rr.to_canonical_wire(key);
    out.emplace(util::to_string(key.bytes()), std::move(rr));
  }
  return out;
}

// The journal entry a whole-zone diff of two snapshots yields.
AuthoritativeServer::JournalEntry full_diff(const Snapshot& before, const Snapshot& after) {
  AuthoritativeServer::JournalEntry entry;
  for (const auto& [key, rr] : before) {
    if (rr.type == RRType::kSOA) {
      entry.soa_before = rr;
    } else if (!after.count(key)) {
      entry.removed.push_back(rr);
    }
  }
  for (const auto& [key, rr] : after) {
    if (rr.type == RRType::kSOA) {
      entry.soa_after = rr;
    } else if (!before.count(key)) {
      entry.added.push_back(rr);
    }
  }
  return entry;
}

// Owners the generator draws from. "zz*" sort after "ns", so deleting one
// that is last makes the chain wrap to the apex from a new last name; "@"
// puts data changes on the apex itself.
const char* const kHosts[] = {"@", "h0", "h1", "h2", "h3", "zz0", "zz1"};

Name owner_of(const std::string& host) {
  return host == "@" ? kOrigin : kOrigin.child(host);
}

ResourceRecord random_change(Rng& rng, const std::string& host) {
  ResourceRecord rr;
  rr.name = owner_of(host);
  const bool txt = rng.below(3) == 0;
  rr.type = txt ? RRType::kTXT : RRType::kA;
  rr.rdata = txt ? TxtRdata{{"t" + std::to_string(rng.below(3))}}.encode()
                 : ARdata::from_text("10.0.0." + std::to_string(1 + rng.below(4))).encode();
  switch (rng.below(8)) {
    case 0:
    case 1:
    case 2:
    case 3:
      rr.ttl = 300;  // add
      break;
    case 4:
    case 5:
      rr.klass = RRClass::kNONE;  // delete one record
      break;
    case 6:
      rr.klass = RRClass::kANY;  // delete the RRset
      rr.rdata.clear();
      break;
    default:
      rr.klass = RRClass::kANY;  // delete everything at the name
      rr.type = RRType::kANY;
      rr.rdata.clear();
      break;
  }
  return rr;
}

ResourceRecord delete_all_at(const Name& name) {
  ResourceRecord rr;
  rr.name = name;
  rr.type = RRType::kANY;
  rr.klass = RRClass::kANY;
  return rr;
}

// One update message drawn against the current zone: single and multi-name
// changes, two canonically adjacent new names, delete-all at a name, and
// delete-all at the zone's last name.
Message random_update(Rng& rng, const Zone& zone) {
  Message m;
  m.opcode = Opcode::kUpdate;
  m.questions.push_back({kOrigin, RRType::kSOA, RRClass::kIN});
  auto& ups = m.updates();
  const auto host = [&] { return std::string(kHosts[rng.below(std::size(kHosts))]); };
  switch (rng.below(7)) {
    case 0:
    case 1:
      ups.push_back(random_change(rng, host()));
      break;
    case 2:
    case 3:
      for (std::uint64_t i = 0, k = 2 + rng.below(3); i < k; ++i) {
        ups.push_back(random_change(rng, host()));
      }
      break;
    case 4: {
      const std::string stem = "n" + std::to_string(rng.below(3));
      for (const char* suffix : {"a", "b"}) {
        ResourceRecord rr;
        rr.name = kOrigin.child(stem + suffix);
        rr.type = RRType::kA;
        rr.ttl = 300;
        rr.rdata = ARdata::from_text("10.1.0.1").encode();
        ups.push_back(rr);
      }
      break;
    }
    case 5:
      ups.push_back(delete_all_at(owner_of(host())));
      break;
    default:
      ups.push_back(delete_all_at(zone.names().back()));
      break;
  }
  return m;
}

void expect_same_records(const std::vector<ResourceRecord>& got,
                         const std::vector<ResourceRecord>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].to_text(), want[i].to_text()) << what << " #" << i;
    EXPECT_TRUE(got[i] == want[i]) << what << " #" << i;
  }
}

// Drives random updates and, after each, checks the incremental results
// against whole-zone recomputation: the NXT chain against a full rebuild,
// the journal entry against a diff of two full snapshots, and the IXFR
// answer against the server's own zone.
void run_oracle(bool sign, Rng& rng, int steps) {
  AuthoritativeServer server(base_zone(sign));
  server.set_journal_limit(1000);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Zone prev = server.zone();
    const Snapshot before = snapshot(prev);
    const std::size_t entries = server.journal().size();
    auto result = server.apply_update(random_update(rng, prev), 5000 + step);
    ASSERT_EQ(result.rcode, Rcode::kNoError);
    for (const auto& task : result.sig_tasks) {
      server.install_signature(task, crypto::rsa_sign_sha1(zone_key(), task.data));
    }
    server.finalize_journal();
    const Zone& now = server.zone();

    if (sign) {
      Zone rebuilt = now;
      EXPECT_TRUE(rebuilt.rebuild_nxt_chain().empty());
      EXPECT_EQ(rebuilt.to_wire(), now.to_wire());
      auto verify = verify_zone(now);
      ASSERT_TRUE(verify.ok) << verify.first_error;
    }

    const std::uint32_t from = prev.soa()->serial;
    if (now.soa()->serial == from) {
      EXPECT_EQ(server.journal().size(), entries);
      EXPECT_EQ(now.to_wire(), prev.to_wire());
      continue;
    }
    ASSERT_EQ(server.journal().size(), entries + 1);
    const auto want = full_diff(before, snapshot(now));
    const auto& got = server.journal().back();
    EXPECT_TRUE(got.soa_before == want.soa_before);
    EXPECT_TRUE(got.soa_after == want.soa_after);
    expect_same_records(got.removed, want.removed, "removed");
    expect_same_records(got.added, want.added, "added");

    bool used_axfr = true;
    const auto answer =
        server.answer_xfr(make_ixfr_query(1, kOrigin, *prev.soa()), 0, &used_axfr);
    ASSERT_EQ(answer.size(), 1u);
    EXPECT_FALSE(used_axfr);
    Zone replayed = prev;
    ASSERT_EQ(apply_xfr_response(replayed, answer.front()), XfrOutcome::kAppliedIxfr);
    // Same records, TTLs and owners. Not to_wire(): an RRset keeps its rdatas
    // in insertion order, and IXFR, like any RFC 1995 diff, carries sets.
    EXPECT_TRUE(snapshot(replayed) == snapshot(now));
  }
}

TEST_P(UpdateModel, UnsignedJournalEqualsFullDiff) {
  Rng rng(300 + GetParam());
  run_oracle(false, rng, 150);
}

TEST_P(UpdateModel, SignedIncrementalPathEqualsFullRecomputation) {
  Rng rng(400 + GetParam());
  run_oracle(true, rng, 60);
}

}  // namespace
}  // namespace sdns::dns
