#include "dns/xfr.hpp"

namespace sdns::dns {

int serial_compare(std::uint32_t a, std::uint32_t b) {
  if (a == b) return 0;
  constexpr std::uint32_t kHalf = 0x80000000u;
  const std::uint32_t diff = b - a;  // modular
  if (diff == kHalf) return 0;       // RFC 1982: incomparable
  return diff < kHalf ? -1 : 1;
}

Message make_ixfr_query(std::uint16_t id, const Name& zone, const SoaRdata& current_soa) {
  Message q;
  q.id = id;
  q.questions.push_back({zone, RRType::kIXFR, RRClass::kIN});
  ResourceRecord soa;
  soa.name = zone;
  soa.type = RRType::kSOA;
  soa.ttl = 0;
  soa.rdata = current_soa.encode();
  q.authority.push_back(std::move(soa));
  return q;
}

Message make_notify(std::uint16_t id, const Name& zone,
                    const ResourceRecord* current_soa) {
  Message m;
  m.id = id;
  m.opcode = Opcode::kNotify;
  m.aa = true;
  m.questions.push_back({zone, RRType::kSOA, RRClass::kIN});
  if (current_soa) m.answers.push_back(*current_soa);
  return m;
}

namespace {

bool is_soa(const ResourceRecord& rr) { return rr.type == RRType::kSOA; }

XfrOutcome apply_axfr(Zone& zone, const Message& response) {
  Zone fresh(zone.origin());
  // SOA leads and trails; every record in between (including the leading
  // SOA, excluding the trailing duplicate) goes into the new zone. Our
  // answer_axfr emits canonical order (modulo the SOA-first framing), so
  // bulk-load through SortedInserter; out-of-order records from foreign
  // primaries just fall back to the general path one record at a time.
  Zone::SortedInserter inserter(fresh);
  for (std::size_t i = 0; i + 1 < response.answers.size(); ++i) {
    const ResourceRecord& rr = response.answers[i];
    if (!fresh.in_zone(rr.name)) return XfrOutcome::kMalformed;
    inserter.add(rr);
  }
  zone = std::move(fresh);
  return XfrOutcome::kReplacedAxfr;
}

}  // namespace

XfrOutcome xfr_format(const Message& response) {
  const auto& rrs = response.answers;
  if (rrs.empty() || !is_soa(rrs.front())) return XfrOutcome::kMalformed;
  if (rrs.size() == 1) return XfrOutcome::kUpToDate;
  if (!is_soa(rrs.back())) return XfrOutcome::kMalformed;
  // IXFR responses have a SOA as the *second* record (the first diff's
  // old-serial marker); AXFR responses have zone data there.
  return is_soa(rrs[1]) ? XfrOutcome::kAppliedIxfr : XfrOutcome::kReplacedAxfr;
}

XfrOutcome apply_xfr_response(Zone& zone, const Message& response) {
  const XfrOutcome format = xfr_format(response);
  if (format == XfrOutcome::kReplacedAxfr) return apply_axfr(zone, response);
  if (format != XfrOutcome::kAppliedIxfr) return format;

  // IXFR: new-SOA, then (old-SOA, deletions..., new-SOA, additions...)*,
  // terminated by the new SOA.
  const auto& rrs = response.answers;
  const SoaRdata target = SoaRdata::decode(rrs.front().rdata);
  std::size_t i = 1;
  while (i < rrs.size() - 1 || (i == rrs.size() - 1 && !is_soa(rrs[i]))) {
    if (!is_soa(rrs[i])) return XfrOutcome::kMalformed;
    const SoaRdata from = SoaRdata::decode(rrs[i].rdata);
    auto current = zone.soa();
    if (!current || current->serial != from.serial) return XfrOutcome::kMalformed;
    ++i;
    // Deletions until the next SOA.
    while (i < rrs.size() && !is_soa(rrs[i])) {
      zone.remove_record(rrs[i].name, rrs[i].type, rrs[i].rdata);
      ++i;
    }
    if (i >= rrs.size()) return XfrOutcome::kMalformed;
    const ResourceRecord new_soa_rr = rrs[i];
    const SoaRdata to = SoaRdata::decode(new_soa_rr.rdata);
    ++i;
    // Additions until the next SOA (or end marker).
    zone.remove_rrset(zone.origin(), RRType::kSOA);
    zone.add_record(new_soa_rr);
    while (i < rrs.size() && !is_soa(rrs[i])) {
      if (!zone.in_zone(rrs[i].name)) return XfrOutcome::kMalformed;
      zone.add_record(rrs[i]);
      ++i;
    }
    if (to.serial == target.serial && i == rrs.size() - 1) break;
  }
  auto final_soa = zone.soa();
  if (!final_soa || final_soa->serial != target.serial) return XfrOutcome::kMalformed;
  return XfrOutcome::kAppliedIxfr;
}

XfrAssembler::State XfrAssembler::step(const ResourceRecord& rr) {
  const bool soa = is_soa(rr);
  try {
    if (records_seen_ == 0) {
      // The stream must open with the current SOA — its serial is the
      // transfer target every later completion check closes against.
      if (!soa) return state_ = State::kMalformed;
      target_serial_ = SoaRdata::decode(rr.rdata).serial;
    } else if (mode_ == Mode::kUnknown) {
      // Second record decides the format: SOA means IXFR diffs (it is the
      // first diff's old-serial marker), anything else means AXFR data.
      mode_ = soa ? Mode::kIxfrDeletions : Mode::kAxfr;
    } else if (mode_ == Mode::kAxfr) {
      if (soa) state_ = State::kDone;  // trailing SOA closes the transfer
    } else if (mode_ == Mode::kIxfrDeletions) {
      if (soa) mode_ = Mode::kIxfrAdditions;  // the diff's new-serial marker
    } else {  // kIxfrAdditions
      if (soa) {
        if (SoaRdata::decode(rr.rdata).serial == target_serial_) {
          state_ = State::kDone;  // closing SOA(target)
        } else {
          mode_ = Mode::kIxfrDeletions;  // next diff's old-serial marker
        }
      }
    }
  } catch (const util::ParseError&) {
    return state_ = State::kMalformed;
  }
  ++records_seen_;
  return state_;
}

XfrAssembler::State XfrAssembler::feed(const Message& envelope) {
  if (state_ != State::kContinue) return state_ = State::kMalformed;
  const bool first = records_seen_ == 0;
  if (first) {
    combined_ = envelope;  // keep the first envelope's header and question
    combined_.answers.clear();
    if (envelope.rcode != Rcode::kNoError) {
      // An error reply is complete in itself; the caller reads the rcode.
      return state_ = State::kDone;
    }
  }
  if (envelope.answers.empty()) return state_ = State::kMalformed;
  for (const auto& rr : envelope.answers) {
    if (state_ == State::kDone) return state_ = State::kMalformed;  // trailing data
    if (step(rr) == State::kMalformed) return state_;
    combined_.answers.push_back(rr);
  }
  // A first envelope that is a lone SOA is the whole reply: already up to
  // date (the chunker guarantees multi-envelope streams open with >= 2).
  if (state_ == State::kContinue && first && records_seen_ == 1) {
    state_ = State::kDone;
  }
  return state_;
}

}  // namespace sdns::dns
