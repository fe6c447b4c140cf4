// Incremental zone transfer (IXFR, RFC 1995) and serial arithmetic
// (RFC 1982): the journal-driven diff path, the AXFR fallback, and
// client-side application to a stale secondary.
#include "dns/xfr.hpp"

#include <gtest/gtest.h>

#include "crypto/rsa.hpp"
#include "dns/server.hpp"
#include "util/rng.hpp"

namespace sdns::dns {
namespace {

using util::Rng;

const Name kOrigin = Name::parse("xfr.example.");

AuthoritativeServer make_server() {
  return AuthoritativeServer(Zone::from_text(kOrigin, R"(
@    IN SOA ns.xfr.example. admin.xfr.example. 10 7200 1200 604800 600
@    IN NS  ns.xfr.example.
ns   IN A   192.0.2.53
www  IN A   192.0.2.80
)"));
}

Message add_update(const char* host, const char* addr) {
  Message m;
  m.opcode = Opcode::kUpdate;
  m.questions.push_back({kOrigin, RRType::kSOA, RRClass::kIN});
  ResourceRecord rr;
  rr.name = kOrigin.child(host);
  rr.type = RRType::kA;
  rr.ttl = 300;
  rr.rdata = ARdata::from_text(addr).encode();
  m.updates().push_back(rr);
  return m;
}

Message delete_update(const char* host) {
  Message m;
  m.opcode = Opcode::kUpdate;
  m.questions.push_back({kOrigin, RRType::kSOA, RRClass::kIN});
  ResourceRecord rr;
  rr.name = kOrigin.child(host);
  rr.type = RRType::kA;
  rr.klass = RRClass::kANY;
  rr.ttl = 0;
  m.updates().push_back(rr);
  return m;
}

TEST(SerialCompare, Rfc1982Semantics) {
  EXPECT_EQ(serial_compare(1, 1), 0);
  EXPECT_LT(serial_compare(1, 2), 0);
  EXPECT_GT(serial_compare(2, 1), 0);
  // Wraparound: 0xFFFFFFFF < 0 < 1 in serial arithmetic.
  EXPECT_LT(serial_compare(0xFFFFFFFFu, 0u), 0);
  EXPECT_GT(serial_compare(0u, 0xFFFFFFFFu), 0);
  EXPECT_LT(serial_compare(0xFFFFFFF0u, 5u), 0);
  // Exactly half the space apart: incomparable.
  EXPECT_EQ(serial_compare(0, 0x80000000u), 0);
}

TEST(SerialCompare, Rfc1982Boundaries) {
  // RFC 1982 §3.2: the comparison is defined only when the serials differ by
  // less than 2^31. Exactly 2^31 apart is incomparable — in BOTH directions,
  // from any starting point, including across the wrap.
  for (const std::uint32_t a :
       {0u, 1u, 0x12345678u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu}) {
    const std::uint32_t b = a + 0x80000000u;  // wraps mod 2^32
    EXPECT_EQ(serial_compare(a, b), 0) << a;
    EXPECT_EQ(serial_compare(b, a), 0) << a;
    // One short of the boundary is the greatest comparable distance...
    EXPECT_LT(serial_compare(a, a + 0x7FFFFFFFu), 0) << a;
    EXPECT_GT(serial_compare(a + 0x7FFFFFFFu, a), 0) << a;
    // ...and one past it flips the sign: a + 2^31 + 1 is BEHIND a.
    EXPECT_GT(serial_compare(a, a + 0x80000001u), 0) << a;
    EXPECT_LT(serial_compare(a + 0x80000001u, a), 0) << a;
  }
  // Wraparound addition (§3.1): a serial stepping over 0xFFFFFFFF is newer.
  EXPECT_LT(serial_compare(0xFFFFFFFEu, 0xFFFFFFFFu), 0);
  EXPECT_LT(serial_compare(0xFFFFFFFFu, 42u), 0);
  EXPECT_GT(serial_compare(42u, 0xFFFFFFFFu), 0);
}

TEST(Journal, RecordsDiffsPerUpdate) {
  auto server = make_server();
  ASSERT_EQ(server.apply_update(add_update("a", "10.0.0.1"), 1).rcode, Rcode::kNoError);
  ASSERT_EQ(server.apply_update(delete_update("www"), 2).rcode, Rcode::kNoError);
  ASSERT_EQ(server.journal().size(), 2u);
  const auto& first = server.journal()[0];
  EXPECT_EQ(SoaRdata::decode(first.soa_before.rdata).serial, 10u);
  EXPECT_EQ(SoaRdata::decode(first.soa_after.rdata).serial, 11u);
  ASSERT_EQ(first.added.size(), 1u);
  EXPECT_EQ(first.added[0].name, kOrigin.child("a"));
  EXPECT_TRUE(first.removed.empty());
  const auto& second = server.journal()[1];
  ASSERT_EQ(second.removed.size(), 1u);
  EXPECT_EQ(second.removed[0].name, kOrigin.child("www"));
}

TEST(Journal, NoEntryForNoopUpdates) {
  auto server = make_server();
  ASSERT_EQ(server.apply_update(delete_update("ghost"), 1).rcode, Rcode::kNoError);
  EXPECT_TRUE(server.journal().empty());
}

TEST(Journal, LimitTrimsOldEntries) {
  auto server = make_server();
  server.set_journal_limit(3);
  for (int i = 0; i < 6; ++i) {
    server.apply_update(add_update(("h" + std::to_string(i)).c_str(), "10.0.0.1"), 1);
  }
  EXPECT_EQ(server.journal().size(), 3u);
  EXPECT_EQ(SoaRdata::decode(server.journal().front().soa_before.rdata).serial, 13u);
}

TEST(Ixfr, UpToDateClientGetsSingleSoa) {
  auto server = make_server();
  auto q = make_ixfr_query(1, kOrigin, *server.zone().soa());
  Message r = server.answer_query(q);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type, RRType::kSOA);
  Zone stale = server.zone();
  EXPECT_EQ(apply_xfr_response(stale, r), XfrOutcome::kUpToDate);
}

TEST(Ixfr, StaleSecondaryCatchesUpIncrementally) {
  auto server = make_server();
  Zone secondary = server.zone();  // in sync at serial 10
  const SoaRdata old_soa = *secondary.soa();

  server.apply_update(add_update("a", "10.0.0.1"), 1);
  server.apply_update(add_update("b", "10.0.0.2"), 2);
  server.apply_update(delete_update("www"), 3);

  Message r = server.answer_query(make_ixfr_query(2, kOrigin, old_soa));
  EXPECT_EQ(apply_xfr_response(secondary, r), XfrOutcome::kAppliedIxfr);
  EXPECT_EQ(secondary.soa()->serial, server.zone().soa()->serial);
  EXPECT_EQ(secondary.to_text(), server.zone().to_text());
}

TEST(Ixfr, MidHistoryClientGetsPartialDiff) {
  auto server = make_server();
  server.apply_update(add_update("a", "10.0.0.1"), 1);  // serial 11
  Zone secondary = server.zone();
  const SoaRdata mid_soa = *secondary.soa();
  server.apply_update(add_update("b", "10.0.0.2"), 2);  // serial 12
  Message r = server.answer_query(make_ixfr_query(3, kOrigin, mid_soa));
  // Diff must cover exactly one update (serial 11 -> 12).
  EXPECT_EQ(apply_xfr_response(secondary, r), XfrOutcome::kAppliedIxfr);
  EXPECT_EQ(secondary.to_text(), server.zone().to_text());
}

TEST(Ixfr, AncientClientFallsBackToAxfr) {
  auto server = make_server();
  server.set_journal_limit(1);
  Zone secondary = server.zone();
  const SoaRdata old_soa = *secondary.soa();
  for (int i = 0; i < 4; ++i) {
    server.apply_update(add_update(("h" + std::to_string(i)).c_str(), "10.0.0.3"), 1);
  }
  Message r = server.answer_query(make_ixfr_query(4, kOrigin, old_soa));
  EXPECT_EQ(apply_xfr_response(secondary, r), XfrOutcome::kReplacedAxfr);
  EXPECT_EQ(secondary.to_text(), server.zone().to_text());
}

TEST(Ixfr, SignedZoneDiffsCarrySignatures) {
  // Journal entries finalized after signature installation must transfer the
  // SIG/NXT changes too, so the secondary's copy verifies.
  Rng rng(1400);
  const auto key = crypto::rsa_generate(rng, 512);
  Zone z = Zone::from_text(kOrigin, R"(
@    IN SOA ns.xfr.example. admin.xfr.example. 10 7200 1200 604800 600
@    IN NS  ns.xfr.example.
ns   IN A   192.0.2.53
)");
  sign_zone(z, key.pub, 1000, 100000, [&](util::BytesView d) {
    return crypto::rsa_sign_sha1(key, d);
  });
  AuthoritativeServer server(std::move(z));
  Zone secondary = server.zone();
  const SoaRdata old_soa = *secondary.soa();

  auto result = server.apply_update(add_update("new", "10.0.0.9"), 2000);
  ASSERT_EQ(result.rcode, Rcode::kNoError);
  for (const auto& task : result.sig_tasks) {
    server.install_signature(task, crypto::rsa_sign_sha1(key, task.data));
  }
  server.finalize_journal();

  Message r = server.answer_query(make_ixfr_query(5, kOrigin, old_soa));
  EXPECT_EQ(apply_xfr_response(secondary, r), XfrOutcome::kAppliedIxfr);
  EXPECT_EQ(secondary.to_text(), server.zone().to_text());
  auto verify = verify_zone(secondary);
  EXPECT_TRUE(verify.ok) << verify.first_error;
}

TEST(Ixfr, QueryWithoutSoaFallsBackToAxfr) {
  auto server = make_server();
  Message q = Message::make_query(6, kOrigin, RRType::kIXFR);  // no authority SOA
  Message r = server.answer_query(q);
  ASSERT_GE(r.answers.size(), 2u);
  EXPECT_EQ(r.answers.front().type, RRType::kSOA);
  EXPECT_EQ(r.answers.back().type, RRType::kSOA);
}

TEST(Ixfr, MalformedResponsesRejected) {
  Zone z = make_server().zone();
  Message empty;
  EXPECT_EQ(apply_xfr_response(z, empty), XfrOutcome::kMalformed);
  Message bogus;
  ResourceRecord a;
  a.name = kOrigin;
  a.type = RRType::kA;
  a.rdata = ARdata::from_text("1.2.3.4").encode();
  bogus.answers.push_back(a);
  EXPECT_EQ(apply_xfr_response(z, bogus), XfrOutcome::kMalformed);
}

TEST(Ixfr, RefusedBelowApex) {
  auto server = make_server();
  Message q = Message::make_query(7, kOrigin.child("www"), RRType::kIXFR);
  EXPECT_EQ(server.answer_query(q).rcode, Rcode::kRefused);
}

// ---- RFC 5936 envelope streaming (answer_xfr) + reassembly ----

Message feed_all(XfrAssembler& assembler, const std::vector<Message>& envelopes) {
  for (const Message& e : envelopes) {
    EXPECT_NE(assembler.state(), XfrAssembler::State::kMalformed);
    assembler.feed(e);
  }
  EXPECT_EQ(assembler.state(), XfrAssembler::State::kDone);
  return assembler.combined();
}

TEST(XfrStream, AxfrChunksUnderMaxWireAndReassembles) {
  auto server = make_server();
  for (int i = 0; i < 200; ++i) {
    server.apply_update(add_update(("host" + std::to_string(i)).c_str(),
                                   "10.1.2.3"), 1);
  }
  const Message q = Message::make_query(21, kOrigin, RRType::kAXFR);
  constexpr std::size_t kMaxWire = 600;
  bool used_axfr = false;
  const std::vector<Message> envelopes = server.answer_xfr(q, kMaxWire, &used_axfr);
  EXPECT_TRUE(used_axfr);
  ASSERT_GT(envelopes.size(), 1u);  // the zone cannot fit one envelope
  for (const Message& e : envelopes) {
    EXPECT_LE(e.encode().size(), kMaxWire);
    EXPECT_FALSE(e.answers.empty());
    EXPECT_EQ(e.id, q.id);
  }
  // SOA-led, SOA-trailed, and ≥2 records in the first envelope (so a client
  // can tell a chunked stream from a lone-SOA "up to date" reply).
  EXPECT_EQ(envelopes.front().answers.front().type, RRType::kSOA);
  EXPECT_EQ(envelopes.back().answers.back().type, RRType::kSOA);
  EXPECT_GE(envelopes.front().answers.size(), 2u);

  XfrAssembler assembler;
  const Message combined = feed_all(assembler, envelopes);
  Zone fresh(kOrigin);
  EXPECT_EQ(apply_xfr_response(fresh, combined), XfrOutcome::kReplacedAxfr);
  EXPECT_EQ(fresh.to_text(), server.zone().to_text());
}

TEST(XfrStream, IxfrDiffStreamsAndAppliesIncrementally) {
  auto server = make_server();
  server.set_journal_limit(256);  // keep all 120 diffs below in reach
  Zone secondary = server.zone();
  for (int i = 0; i < 120; ++i) {
    server.apply_update(add_update(("d" + std::to_string(i)).c_str(),
                                   "10.9.9.9"), 1);
  }
  const Message q = make_ixfr_query(22, kOrigin, *secondary.soa());
  bool used_axfr = true;
  const std::vector<Message> envelopes = server.answer_xfr(q, 600, &used_axfr);
  EXPECT_FALSE(used_axfr);
  ASSERT_GT(envelopes.size(), 1u);
  XfrAssembler assembler;
  const Message combined = feed_all(assembler, envelopes);
  EXPECT_EQ(apply_xfr_response(secondary, combined), XfrOutcome::kAppliedIxfr);
  EXPECT_EQ(secondary.to_text(), server.zone().to_text());
}

TEST(XfrStream, UpToDateIxfrIsSingleSoaEnvelope) {
  auto server = make_server();
  const Message q = make_ixfr_query(23, kOrigin, *server.zone().soa());
  const std::vector<Message> envelopes = server.answer_xfr(q, 600);
  ASSERT_EQ(envelopes.size(), 1u);
  ASSERT_EQ(envelopes[0].answers.size(), 1u);
  XfrAssembler assembler;
  EXPECT_EQ(assembler.feed(envelopes[0]), XfrAssembler::State::kDone);
  Zone z = server.zone();
  EXPECT_EQ(apply_xfr_response(z, assembler.combined()), XfrOutcome::kUpToDate);
}

TEST(XfrStream, JournalTruncationFallsBackToAxfrFormat) {
  auto server = make_server();
  server.set_journal_limit(1);
  Zone secondary = server.zone();
  const SoaRdata old_soa = *secondary.soa();
  for (int i = 0; i < 5; ++i) {
    server.apply_update(add_update(("t" + std::to_string(i)).c_str(),
                                   "10.0.0.7"), 1);
  }
  bool used_axfr = false;
  const std::vector<Message> envelopes =
      server.answer_xfr(make_ixfr_query(24, kOrigin, old_soa), 600, &used_axfr);
  EXPECT_TRUE(used_axfr);
  XfrAssembler assembler;
  const Message combined = feed_all(assembler, envelopes);
  EXPECT_EQ(apply_xfr_response(secondary, combined), XfrOutcome::kReplacedAxfr);
  EXPECT_EQ(secondary.to_text(), server.zone().to_text());
}

TEST(XfrStream, ValidationFailuresAreSingleErrorEnvelopes) {
  auto server = make_server();
  const Message below = Message::make_query(25, kOrigin.child("www"), RRType::kAXFR);
  std::vector<Message> envelopes = server.answer_xfr(below, 600);
  ASSERT_EQ(envelopes.size(), 1u);
  EXPECT_EQ(envelopes[0].rcode, Rcode::kRefused);
  // The assembler surfaces the error reply as a completed (empty) transfer —
  // callers read the rcode.
  XfrAssembler assembler;
  EXPECT_EQ(assembler.feed(envelopes[0]), XfrAssembler::State::kDone);
  EXPECT_EQ(assembler.combined().rcode, Rcode::kRefused);

  const Message wrong_type = Message::make_query(26, kOrigin, RRType::kA);
  envelopes = server.answer_xfr(wrong_type, 600);
  ASSERT_EQ(envelopes.size(), 1u);
  EXPECT_EQ(envelopes[0].rcode, Rcode::kRefused);
}

TEST(XfrStream, AssemblerRejectsMalformedStreams) {
  auto server = make_server();
  for (int i = 0; i < 50; ++i) {
    server.apply_update(add_update(("m" + std::to_string(i)).c_str(),
                                   "10.2.2.2"), 1);
  }
  const Message q = Message::make_query(27, kOrigin, RRType::kAXFR);
  const std::vector<Message> envelopes = server.answer_xfr(q, 600);
  ASSERT_GT(envelopes.size(), 2u);

  // A stream that does not lead with the SOA is not a transfer.
  XfrAssembler wrong_first;
  EXPECT_EQ(wrong_first.feed(envelopes[1]), XfrAssembler::State::kMalformed);

  // Data after the terminal SOA: trailing envelopes must be rejected.
  XfrAssembler trailing;
  for (const Message& e : envelopes) trailing.feed(e);
  ASSERT_EQ(trailing.state(), XfrAssembler::State::kDone);
  EXPECT_EQ(trailing.feed(envelopes[1]), XfrAssembler::State::kMalformed);

  // An empty envelope mid-stream carries no records — malformed.
  XfrAssembler empty_mid;
  empty_mid.feed(envelopes[0]);
  ASSERT_EQ(empty_mid.state(), XfrAssembler::State::kContinue);
  Message hollow = Message::make_response(q);
  EXPECT_EQ(empty_mid.feed(hollow), XfrAssembler::State::kMalformed);
}

TEST(Ixfr, TransfersDuringSigningServeTheCommittedZone) {
  // Between apply_update and finalize_journal the zone holds an update whose
  // SIGs are still being made. AXFR and IXFR must serve the zone as the last
  // commit left it, or a stale or bootstrapping secondary would receive a
  // zone that fails verification.
  Rng rng(1401);
  const auto key = crypto::rsa_generate(rng, 512);
  const auto sign = [&](util::BytesView d) { return crypto::rsa_sign_sha1(key, d); };
  Zone z = Zone::from_text(kOrigin, R"(
@    IN SOA ns.xfr.example. admin.xfr.example. 10 7200 1200 604800 600
@    IN NS  ns.xfr.example.
ns   IN A   192.0.2.53
www  IN A   192.0.2.80
)");
  sign_zone(z, key.pub, 1000, 100000, sign);
  AuthoritativeServer server(std::move(z));
  const util::Bytes committed = server.zone().to_wire();
  const SoaRdata old_soa = *server.zone().soa();

  // 1. One update adds an owner and erases another; its SIGs stay pending.
  Message update = add_update("new", "10.0.0.9");
  update.updates().push_back(delete_update("www").updates().front());
  const UpdateResult result = server.apply_update(update, 2000);
  ASSERT_EQ(result.rcode, Rcode::kNoError);
  ASSERT_FALSE(result.sig_tasks.empty());
  ASSERT_NE(server.zone().to_wire(), committed);

  // 2. AXFR, whole and chunked, is the zone as it was before the update.
  Message axfr_q = Message::make_query(8, kOrigin, RRType::kAXFR);
  for (const std::size_t max_wire : {std::size_t{0}, std::size_t{600}}) {
    XfrAssembler assembler;
    const Message axfr = feed_all(assembler, server.answer_xfr(axfr_q, max_wire));
    Zone fresh(kOrigin);
    ASSERT_EQ(apply_xfr_response(fresh, axfr), XfrOutcome::kReplacedAxfr);
    EXPECT_EQ(fresh.to_wire(), committed) << "max_wire " << max_wire;
    EXPECT_TRUE(verify_zone(fresh, key.pub).ok);
  }

  // 3. A client at the committed serial is up to date: one SOA, the old one.
  const Message up_to_date = server.answer_query(make_ixfr_query(9, kOrigin, old_soa));
  ASSERT_EQ(up_to_date.answers.size(), 1u);
  EXPECT_EQ(SoaRdata::decode(up_to_date.answers[0].rdata).serial, old_soa.serial);

  // 4. Once the SIGs are in and the journal closes, the same IXFR gets the
  //    diff, and the secondary it brings up to date verifies.
  for (const auto& task : result.sig_tasks) {
    server.install_signature(task, sign(task.data));
  }
  server.finalize_journal();
  Zone secondary = Zone::from_wire(committed);
  const Message diff = server.answer_query(make_ixfr_query(10, kOrigin, old_soa));
  EXPECT_EQ(apply_xfr_response(secondary, diff), XfrOutcome::kAppliedIxfr);
  EXPECT_EQ(secondary.soa()->serial, old_soa.serial + 1);
  EXPECT_EQ(secondary.find(kOrigin.child("www"), RRType::kA), nullptr);
  EXPECT_NE(secondary.find(kOrigin.child("new"), RRType::kA), nullptr);
  const auto verify = verify_zone(secondary, key.pub);
  EXPECT_TRUE(verify.ok) << verify.first_error;
}

TEST(Notify, MessageShapeFollowsRfc1996) {
  auto server = make_server();
  ResourceRecord soa;
  soa.name = kOrigin;
  soa.type = RRType::kSOA;
  soa.ttl = 600;
  soa.rdata = server.zone().find(kOrigin, RRType::kSOA)->rdatas.front();

  const Message n = make_notify(0x4e46, kOrigin, &soa);
  const Message decoded = Message::decode(n.encode());
  EXPECT_EQ(decoded.id, 0x4e46);
  EXPECT_FALSE(decoded.qr);
  EXPECT_EQ(decoded.opcode, Opcode::kNotify);
  EXPECT_TRUE(decoded.aa);
  ASSERT_EQ(decoded.questions.size(), 1u);
  EXPECT_EQ(decoded.questions[0].name, kOrigin);
  EXPECT_EQ(decoded.questions[0].type, RRType::kSOA);
  // §3.7: the answer section MAY carry the current SOA as a serial hint.
  ASSERT_EQ(decoded.answers.size(), 1u);
  EXPECT_EQ(SoaRdata::decode(decoded.answers[0].rdata).serial, 10u);
  // Without the hint the answer section stays empty.
  EXPECT_TRUE(make_notify(1, kOrigin).answers.empty());
}

}  // namespace
}  // namespace sdns::dns
