#include "dns/server.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/log.hpp"

namespace sdns::dns {

using util::Bytes;
using util::BytesView;

AuthoritativeServer::AuthoritativeServer(Zone zone, UpdatePolicy policy,
                                         std::uint32_t signature_validity)
    : zone_(std::move(zone)),
      policy_(std::move(policy)),
      signature_validity_(signature_validity) {}

bool AuthoritativeServer::zone_is_signed() const {
  return zone_.find(zone_.origin(), RRType::kKEY) != nullptr;
}

void AuthoritativeServer::add_rrset_with_sigs(Message& response,
                                              std::vector<ResourceRecord>& section,
                                              const RRset& rrset) const {
  for (auto& rr : rrset.to_records()) section.push_back(std::move(rr));
  if (!zone_is_signed()) return;
  const RRset* sigs = zone_.find(rrset.name, RRType::kSIG);
  if (!sigs) return;
  for (const auto& rd : sigs->rdatas) {
    try {
      if (SigRdata::decode(rd).type_covered != rrset.type) continue;
    } catch (const util::ParseError&) {
      continue;
    }
    section.push_back({rrset.name, RRType::kSIG, RRClass::kIN, sigs->ttl, rd});
  }
  (void)response;
}

void AuthoritativeServer::add_denial(Message& response, const Name& qname) const {
  // SOA in authority for negative answers; NXT proves the denial when signed.
  if (const RRset* soa = zone_.find(zone_.origin(), RRType::kSOA)) {
    add_rrset_with_sigs(response, response.authority, *soa);
  }
  if (zone_is_signed()) {
    const Name pred = zone_.predecessor(qname);
    if (const RRset* nxt = zone_.find(pred, RRType::kNXT)) {
      add_rrset_with_sigs(response, response.authority, *nxt);
    }
  }
}

void AuthoritativeServer::add_additionals(Message& response) const {
  // Glue A/AAAA records for NS and MX targets mentioned in the answer.
  std::set<std::string> already;
  for (const auto& rr : response.answers) {
    already.insert(rr.name.canonical().to_string() + "/" + to_string(rr.type));
  }
  std::vector<Name> targets;
  for (const auto& rr : response.answers) {
    try {
      if (rr.type == RRType::kNS) {
        targets.push_back(NameRdata::decode(rr.rdata).target);
      } else if (rr.type == RRType::kMX) {
        targets.push_back(MxRdata::decode(rr.rdata).exchange);
      }
    } catch (const util::ParseError&) {
    }
  }
  for (const auto& target : targets) {
    if (!zone_.in_zone(target)) continue;
    for (RRType t : {RRType::kA, RRType::kAAAA}) {
      const std::string key = target.canonical().to_string() + "/" + to_string(t);
      if (already.count(key)) continue;
      if (const RRset* rrset = zone_.find(target, t)) {
        already.insert(key);
        for (auto& rr : rrset->to_records()) response.additional.push_back(std::move(rr));
      }
    }
  }
}

void AuthoritativeServer::finalize_journal() {
  const std::optional<Zone::PreImages> touched = zone_.end_capture();
  if (!touched) return;
  // Only captured owners can differ, so their diff is the whole-zone diff.
  // Records are keyed by canonical wire, the order IXFR has always used.
  std::map<std::string, ResourceRecord> before;
  std::map<std::string, ResourceRecord> after;
  const auto keyed = [](std::map<std::string, ResourceRecord>& out, const RRset& rrset) {
    for (auto& rr : rrset.to_records()) {
      util::Writer key;
      rr.to_canonical_wire(key);
      out.emplace(util::to_string(key.bytes()), std::move(rr));
    }
  };
  for (const auto& [owner, pre] : *touched) {
    if (pre) {
      for (const auto& [type, rrset] : *pre) keyed(before, rrset);
    }
    for (const auto& rrset : zone_.rrsets_at(owner)) keyed(after, rrset);
  }
  JournalEntry entry;
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
  const std::uint32_t from = SoaRdata::decode(entry.soa_before.rdata).serial;
  const std::uint32_t to = SoaRdata::decode(entry.soa_after.rdata).serial;
  if (from == to) return;  // nothing observable changed
  journal_.push_back(std::move(entry));
  while (journal_.size() > journal_limit_) journal_.pop_front();
}

void AuthoritativeServer::answer_ixfr(Message& response, const Message& query,
                                      bool* used_axfr) const {
  const RRset* soa_set = zone_.find(zone_.origin(), RRType::kSOA);
  if (!soa_set || soa_set->rdatas.empty()) {
    response.rcode = Rcode::kServFail;
    return;
  }
  const ResourceRecord current_soa = soa_set->to_records().front();
  const std::uint32_t current = SoaRdata::decode(current_soa.rdata).serial;
  // The client's serial travels in the authority section's SOA (RFC 1995).
  std::optional<std::uint32_t> client_serial;
  for (const auto& rr : query.authority) {
    if (rr.type == RRType::kSOA) {
      try {
        client_serial = SoaRdata::decode(rr.rdata).serial;
      } catch (const util::ParseError&) {
      }
      break;
    }
  }
  if (client_serial && *client_serial == current) {
    response.answers.push_back(current_soa);  // already up to date
    return;
  }
  // Find the journal suffix starting at the client's serial.
  std::size_t start = journal_.size();
  if (client_serial) {
    for (std::size_t i = 0; i < journal_.size(); ++i) {
      if (SoaRdata::decode(journal_[i].soa_before.rdata).serial == *client_serial) {
        start = i;
        break;
      }
    }
  }
  if (!client_serial || start == journal_.size()) {
    if (used_axfr) *used_axfr = true;
    answer_axfr(response);  // too old (or no serial given): full transfer
    return;
  }
  response.answers.push_back(current_soa);
  for (std::size_t i = start; i < journal_.size(); ++i) {
    const JournalEntry& e = journal_[i];
    response.answers.push_back(e.soa_before);
    for (const auto& rr : e.removed) response.answers.push_back(rr);
    response.answers.push_back(e.soa_after);
    for (const auto& rr : e.added) response.answers.push_back(rr);
  }
  response.answers.push_back(current_soa);
}

void AuthoritativeServer::answer_axfr(Message& response) const {
  // AXFR framing: the SOA leads and trails the record stream (RFC 5936).
  const RRset* soa = zone_.find(zone_.origin(), RRType::kSOA);
  if (!soa || soa->rdatas.empty()) {
    response.rcode = Rcode::kServFail;
    return;
  }
  const ResourceRecord soa_rr = soa->to_records().front();
  response.answers.push_back(soa_rr);
  zone_.for_each_rrset([&](const RRset& rrset) {
    if (rrset.type == RRType::kSOA) return;
    for (auto& rr : rrset.to_records()) response.answers.push_back(std::move(rr));
  });
  response.answers.push_back(soa_rr);
}

std::vector<Message> AuthoritativeServer::answer_xfr(const Message& query,
                                                     std::size_t max_wire,
                                                     bool* used_axfr) const {
  if (used_axfr) *used_axfr = false;
  Message full = Message::make_response(query);
  full.aa = true;
  if (query.opcode != Opcode::kQuery || query.questions.size() != 1) {
    full.rcode = query.questions.empty() ? Rcode::kFormErr : Rcode::kNotImp;
    return {std::move(full)};
  }
  const Question& q = query.questions.front();
  if ((q.type != RRType::kAXFR && q.type != RRType::kIXFR) ||
      !(q.name == zone_.origin()) ||
      (q.klass != RRClass::kIN && q.klass != RRClass::kANY)) {
    full.rcode = Rcode::kRefused;
    return {std::move(full)};
  }
  if (q.type == RRType::kAXFR) {
    if (used_axfr) *used_axfr = true;
    answer_axfr(full);
  } else {
    answer_ixfr(full, query, used_axfr);
  }
  if (full.rcode != Rcode::kNoError || max_wire == 0) return {std::move(full)};

  // Chunk the record stream into RFC 5936 envelopes. A record's canonical
  // (uncompressed) wire size bounds its encoded size from above — compression
  // only shrinks — so summing canonical sizes against the budget guarantees
  // each envelope encodes below max_wire. The first envelope always carries
  // at least two records when the stream has more than one, so a receiver
  // can tell "single SOA = up to date" apart from a chunked transfer.
  Message skeleton = full;
  skeleton.answers.clear();
  const std::size_t base = skeleton.encode().size();
  std::vector<Message> out;
  Message cur = skeleton;
  std::size_t cur_size = base;
  for (std::size_t i = 0; i < full.answers.size(); ++i) {
    util::Writer w;
    full.answers[i].to_canonical_wire(w);
    const std::size_t rr_size = w.bytes().size();
    const bool keep_pair = out.empty() && cur.answers.size() == 1;
    if (!cur.answers.empty() && !keep_pair && cur_size + rr_size > max_wire) {
      out.push_back(std::move(cur));
      cur = skeleton;
      cur_size = base;
    }
    cur.answers.push_back(full.answers[i]);
    cur_size += rr_size;
  }
  out.push_back(std::move(cur));
  return out;
}

std::optional<Name> AuthoritativeServer::wildcard_for(const Name& qname) const {
  // Walk toward the origin; the first ancestor owning a "*" child whose
  // subtree could cover qname provides the synthesis source (RFC 1034
  // §4.3.2, simplified: no empty-non-terminal blocking below the encloser).
  const std::size_t origin_labels = zone_.origin().label_count();
  for (std::size_t up = 1; qname.label_count() - up >= origin_labels; ++up) {
    const Name ancestor = qname.parent(up);
    const Name wildcard = ancestor.child("*");
    if (zone_.name_exists(wildcard)) return wildcard;
    if (zone_.name_exists(ancestor)) break;  // real node shadows wildcards above
  }
  return std::nullopt;
}

Message AuthoritativeServer::answer_query(const Message& query,
                                          std::size_t max_udp_size) const {
  Message response = Message::make_response(query);
  response.aa = true;
  if (query.opcode != Opcode::kQuery || query.questions.size() != 1) {
    response.rcode = query.questions.empty() ? Rcode::kFormErr : Rcode::kNotImp;
    return response;
  }
  const Question& q = query.questions.front();
  if (q.klass != RRClass::kIN && q.klass != RRClass::kANY) {
    response.rcode = Rcode::kRefused;
    return response;
  }
  if (!zone_.in_zone(q.name)) {
    response.aa = false;
    response.rcode = Rcode::kRefused;  // not authoritative for that name
    return response;
  }
  if (q.type == RRType::kAXFR || q.type == RRType::kIXFR) {
    if (!(q.name == zone_.origin())) {
      response.rcode = Rcode::kRefused;
    } else if (q.type == RRType::kAXFR) {
      answer_axfr(response);
    } else {
      answer_ixfr(response, query);
    }
    return response;
  }

  Name qname = q.name;
  // CNAME chasing (bounded; single zone cannot loop more than its size).
  for (std::size_t hops = 0; hops <= zone_.rrset_count(); ++hops) {
    if (!zone_.name_exists(qname)) {
      // Wildcard synthesis before declaring the name nonexistent.
      if (auto wildcard = wildcard_for(qname)) {
        bool answered = false;
        for (const auto& rrset : zone_.rrsets_at(*wildcard)) {
          const bool wanted = q.type == RRType::kANY ? rrset.type != RRType::kSIG &&
                                                           rrset.type != RRType::kNXT
                                                     : rrset.type == q.type;
          if (!wanted) continue;
          add_rrset_with_sigs(response, response.answers, rrset);
          // Rewrite the owners we just appended to qname; the SIG rdata
          // stays byte-identical (its labels field lets verifiers
          // reconstruct the wildcard owner).
          for (auto& rr : response.answers) {
            if (rr.name == *wildcard) rr.name = qname;
          }
          answered = true;
        }
        if (answered) {
          add_additionals(response);
          if (max_udp_size && response.encode().size() > max_udp_size) {
            response.answers.clear();
            response.authority.clear();
            response.additional.clear();
            response.tc = true;
          }
          return response;
        }
      }
      response.rcode = Rcode::kNxDomain;
      add_denial(response, qname);
      return response;
    }
    const auto finish = [&]() -> Message {
      add_additionals(response);
      if (max_udp_size && response.encode().size() > max_udp_size) {
        response.answers.clear();
        response.authority.clear();
        response.additional.clear();
        response.tc = true;
      }
      return response;
    };
    if (q.type == RRType::kANY) {
      for (const auto& rrset : zone_.rrsets_at(qname)) {
        if (rrset.type == RRType::kSIG) continue;
        add_rrset_with_sigs(response, response.answers, rrset);
      }
      return finish();
    }
    if (const RRset* rrset = zone_.find(qname, q.type)) {
      add_rrset_with_sigs(response, response.answers, *rrset);
      return finish();
    }
    const RRset* cname = zone_.find(qname, RRType::kCNAME);
    if (cname && q.type != RRType::kCNAME && !cname->rdatas.empty()) {
      add_rrset_with_sigs(response, response.answers, *cname);
      const Name target = NameRdata::decode(cname->rdatas.front()).target;
      if (!zone_.in_zone(target)) return response;  // out-of-zone target
      qname = target;
      continue;
    }
    // Name exists but type does not: NOERROR / NODATA.
    add_denial(response, qname);
    return response;
  }
  response.rcode = Rcode::kServFail;  // CNAME loop
  return response;
}

Message AuthoritativeServer::update_response(const Message& update, Rcode rcode) {
  Message response = Message::make_response(update);
  response.rcode = rcode;
  return response;
}

UpdateResult AuthoritativeServer::apply_update(const Message& update, std::uint32_t now) {
  UpdateResult result;

  Message req = update;  // TSIG verification strips the signature record
  if (policy_.require_tsig) {
    TsigVerifyOptions topt;
    topt.now = policy_.tsig_clock;
    topt.fudge = policy_.tsig_fudge;
    const TsigStatus status = tsig_verify(
        req,
        [&](const std::string& name) {
          for (const auto& key : policy_.keys) {
            if (key.name == name) return std::optional<Bytes>(key.secret);
          }
          return std::optional<Bytes>();
        },
        topt);
    if (status != TsigStatus::kOk) {
      SDNS_LOG_DEBUG("update rejected: TSIG status ", static_cast<int>(status));
      // BADTIME answers NOTAUTH (RFC 2845 §4.5.2 maps TSIG errors onto it);
      // everything else stays the generic policy refusal.
      result.rcode =
          status == TsigStatus::kBadTime ? Rcode::kNotAuth : Rcode::kRefused;
      return result;
    }
  }

  if (req.opcode != Opcode::kUpdate || req.questions.size() != 1) {
    result.rcode = Rcode::kFormErr;
    return result;
  }
  const Question& zone_section = req.questions.front();
  if (zone_section.type != RRType::kSOA || !(zone_section.name == zone_.origin())) {
    result.rcode = Rcode::kNotZone;
    return result;
  }

  // ---- prerequisites (RFC 2136 §2.4, §3.2) ----
  // Value-dependent prerequisites are grouped into temporary RRsets.
  std::map<std::pair<std::string, std::uint16_t>, std::vector<Bytes>> required_rrsets;
  for (const auto& rr : req.prerequisites()) {
    if (rr.ttl != 0 || !zone_.in_zone(rr.name)) {
      result.rcode = Rcode::kFormErr;
      return result;
    }
    switch (rr.klass) {
      case RRClass::kANY:
        if (!rr.rdata.empty()) {
          result.rcode = Rcode::kFormErr;
          return result;
        }
        if (rr.type == RRType::kANY) {
          if (!zone_.name_exists(rr.name)) {
            result.rcode = Rcode::kNxDomain;
            return result;
          }
        } else if (!zone_.find(rr.name, rr.type)) {
          result.rcode = Rcode::kNxRRset;
          return result;
        }
        break;
      case RRClass::kNONE:
        if (!rr.rdata.empty()) {
          result.rcode = Rcode::kFormErr;
          return result;
        }
        if (rr.type == RRType::kANY) {
          if (zone_.name_exists(rr.name)) {
            result.rcode = Rcode::kYxDomain;
            return result;
          }
        } else if (zone_.find(rr.name, rr.type)) {
          result.rcode = Rcode::kYxRRset;
          return result;
        }
        break;
      case RRClass::kIN:
        required_rrsets[{rr.name.canonical().to_string(),
                         static_cast<std::uint16_t>(rr.type)}]
            .push_back(rr.rdata);
        break;
      default:
        result.rcode = Rcode::kFormErr;
        return result;
    }
  }
  for (auto& [key, rdatas] : required_rrsets) {
    const Name name = Name::parse(key.first);
    const RRType type = static_cast<RRType>(key.second);
    const RRset* existing = zone_.find(name, type);
    if (!existing) {
      result.rcode = Rcode::kNxRRset;
      return result;
    }
    auto want = rdatas;
    auto have = existing->rdatas;
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
    if (want != have) {
      result.rcode = Rcode::kNxRRset;
      return result;
    }
  }

  // ---- update-section prescan (RFC 2136 §3.4.1) ----
  for (const auto& rr : req.updates()) {
    if (!zone_.in_zone(rr.name)) {
      result.rcode = Rcode::kNotZone;
      return result;
    }
    const bool meta = rr.type == RRType::kANY || rr.type == RRType::kSIG ||
                      rr.type == RRType::kNXT || rr.type == RRType::kTSIG;
    switch (rr.klass) {
      case RRClass::kIN:
        if (rr.type == RRType::kANY || rr.type == RRType::kSIG ||
            rr.type == RRType::kNXT) {
          result.rcode = Rcode::kFormErr;
          return result;
        }
        break;
      case RRClass::kANY:
        if (!rr.rdata.empty() || rr.ttl != 0 ||
            (meta && rr.type != RRType::kANY)) {
          result.rcode = Rcode::kFormErr;
          return result;
        }
        break;
      case RRClass::kNONE:
        if (rr.ttl != 0) {
          result.rcode = Rcode::kFormErr;
          return result;
        }
        break;
      default:
        result.rcode = Rcode::kFormErr;
        return result;
    }
  }

  // ---- apply (RFC 2136 §3.4.2) ----
  zone_.begin_capture();  // journal pre-images for IXFR, owners for NXT
  std::set<std::pair<std::string, std::uint16_t>> touched;
  auto touch = [&](const Name& name, RRType type) {
    touched.insert({name.to_string(), static_cast<std::uint16_t>(type)});
  };
  for (const auto& rr : req.updates()) {
    switch (rr.klass) {
      case RRClass::kIN:
        if (rr.type == RRType::kSOA) {
          // SOA add replaces the existing SOA if the serial is newer.
          auto current = zone_.soa();
          const SoaRdata incoming = SoaRdata::decode(rr.rdata);
          if (current && incoming.serial <= current->serial) break;
          zone_.remove_rrset(zone_.origin(), RRType::kSOA);
          zone_.add_record(rr);
          touch(rr.name, rr.type);
        } else if (rr.type == RRType::kCNAME) {
          // CNAME may not coexist with other data (simplified RFC 2136 rule).
          bool other = false;
          for (const auto& rrset : zone_.rrsets_at(rr.name)) {
            if (rrset.type != RRType::kCNAME && rrset.type != RRType::kSIG &&
                rrset.type != RRType::kNXT) {
              other = true;
            }
          }
          if (other) break;  // silently ignored per RFC 2136
          zone_.add_record(rr);
          touch(rr.name, rr.type);
        } else {
          if (zone_.find(rr.name, RRType::kCNAME) && rr.type != RRType::kSIG &&
              rr.type != RRType::kNXT) {
            break;  // data may not be added beside a CNAME
          }
          zone_.add_record(rr);
          touch(rr.name, rr.type);
        }
        break;
      case RRClass::kANY:
        if (rr.type == RRType::kANY) {
          if (rr.name == zone_.origin()) {
            // Apex: everything except SOA/NS (and DNSSEC meta) goes.
            for (const auto& rrset : zone_.rrsets_at(rr.name)) {
              if (rrset.type == RRType::kSOA || rrset.type == RRType::kNS ||
                  rrset.type == RRType::kSIG || rrset.type == RRType::kNXT ||
                  rrset.type == RRType::kKEY) {
                continue;
              }
              zone_.remove_rrset(rr.name, rrset.type);
              touch(rr.name, rrset.type);
            }
          } else {
            for (const auto& rrset : zone_.rrsets_at(rr.name)) {
              if (rrset.type == RRType::kSIG || rrset.type == RRType::kNXT) continue;
              zone_.remove_rrset(rr.name, rrset.type);
              touch(rr.name, rrset.type);
            }
          }
        } else {
          if (rr.name == zone_.origin() &&
              (rr.type == RRType::kSOA || rr.type == RRType::kNS)) {
            break;  // protected at apex
          }
          if (zone_.remove_rrset(rr.name, rr.type)) touch(rr.name, rr.type);
        }
        break;
      case RRClass::kNONE: {
        if (rr.type == RRType::kSOA) break;
        if (rr.name == zone_.origin() && rr.type == RRType::kNS) {
          const RRset* ns = zone_.find(rr.name, RRType::kNS);
          if (ns && ns->rdatas.size() <= 1) break;  // keep the last apex NS
        }
        if (zone_.remove_record(rr.name, rr.type, rr.rdata)) touch(rr.name, rr.type);
        break;
      }
      default:
        break;
    }
  }

  if (touched.empty()) {
    zone_.end_capture();             // nothing changed: no journal entry
    result.rcode = Rcode::kNoError;  // no-op update succeeds
    return result;
  }

  zone_.bump_serial();
  touch(zone_.origin(), RRType::kSOA);

  // Clean SIG records of vanished or changed RRsets; regenerate below.
  for (const auto& [name_text, type_raw] : touched) {
    const Name name = Name::parse(name_text);
    zone_.remove_sigs(name, static_cast<RRType>(type_raw));
  }

  for (const auto& [name_text, type_raw] : touched) {
    result.changed_names.push_back(Name::parse(name_text));
  }

  if (!zone_is_signed()) {
    finalize_journal();  // unsigned zones commit immediately
    return result;
  }

  // NXT chain maintenance adds its own changed RRsets: the touched owners
  // and their predecessors, never a walk of the whole chain.
  for (const auto& n : zone_.refresh_nxt_chain()) {
    touched.insert({n.to_string(), static_cast<std::uint16_t>(RRType::kNXT)});
    zone_.remove_sigs(n, RRType::kNXT);
  }

  const KeyRdata key =
      KeyRdata::decode(zone_.find(zone_.origin(), RRType::kKEY)->rdatas.front());
  const std::uint16_t tag = key_tag(key);
  // Deterministic task order: (canonical owner, type).
  std::vector<std::pair<Name, RRType>> to_sign;
  for (const auto& [name_text, type_raw] : touched) {
    to_sign.emplace_back(Name::parse(name_text), static_cast<RRType>(type_raw));
  }
  std::sort(to_sign.begin(), to_sign.end(), [](const auto& a, const auto& b) {
    const int c = Name::canonical_compare(a.first, b.first);
    if (c != 0) return c < 0;
    return static_cast<std::uint16_t>(a.second) < static_cast<std::uint16_t>(b.second);
  });
  for (const auto& [name, type] : to_sign) {
    const RRset* rrset = zone_.find(name, type);
    if (!rrset) continue;  // deleted rrset: nothing to sign
    result.sig_tasks.push_back(
        make_sig_task(*rrset, zone_.origin(), tag, now, now + signature_validity_));
  }
  return result;
}

void AuthoritativeServer::install_signature(const SigTask& task, Bytes signature_bytes) {
  zone_.remove_sigs(task.owner, task.sig.type_covered);
  zone_.add_record(finish_sig_task(task, std::move(signature_bytes)));
}

}  // namespace sdns::dns
