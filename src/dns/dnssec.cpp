#include "dns/dnssec.hpp"

#include <algorithm>
#include <optional>

namespace sdns::dns {

using util::Bytes;
using util::BytesView;
using util::Writer;

std::uint16_t key_tag(const KeyRdata& key) {
  const Bytes rdata = key.encode();
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < rdata.size(); ++i) {
    acc += (i & 1) ? rdata[i] : static_cast<std::uint32_t>(rdata[i]) << 8;
  }
  acc += (acc >> 16) & 0xffff;
  return static_cast<std::uint16_t>(acc & 0xffff);
}

ResourceRecord make_zone_key_record(const Name& zone, std::uint32_t ttl,
                                    const crypto::RsaPublicKey& pub) {
  KeyRdata key;
  key.public_key = pub.encode();
  ResourceRecord rr;
  rr.name = zone;
  rr.type = RRType::kKEY;
  rr.ttl = ttl;
  rr.rdata = key.encode();
  return rr;
}

crypto::RsaPublicKey zone_key_from_record(const KeyRdata& key) {
  return crypto::RsaPublicKey::decode(key.public_key);
}

namespace {

/// RFC 2535 §4.1.8: data = SIG RDATA (sans signature) || canonical RRs.
Bytes signing_data(const SigRdata& sig, const RRset& rrset) {
  Writer w;
  w.raw(sig.presignature_prefix());
  std::vector<Bytes> rdatas = rrset.rdatas;
  std::sort(rdatas.begin(), rdatas.end());
  const Name owner = rrset.name.canonical();
  for (const auto& rd : rdatas) {
    owner.to_wire(w);
    w.u16(static_cast<std::uint16_t>(rrset.type));
    w.u16(static_cast<std::uint16_t>(RRClass::kIN));
    w.u32(sig.original_ttl);
    w.lp16(rd);
  }
  return std::move(w).take();
}

}  // namespace

SigTask make_sig_task(const RRset& rrset, const Name& signer, std::uint16_t tag,
                      std::uint32_t inception, std::uint32_t expiration) {
  SigTask task;
  task.owner = rrset.name;
  task.ttl = rrset.ttl;
  task.sig.type_covered = rrset.type;
  task.sig.algorithm = 5;  // RSA/SHA-1
  // Wildcard owners ("*.x") record the label count *without* the asterisk,
  // which is how verifiers of synthesized records reconstruct the owner the
  // signature actually covers (RFC 2535 §4.1.3 / RFC 4034 §3.1.3).
  std::size_t labels = rrset.name.label_count();
  if (labels > 0 && rrset.name.label(0) == "*") --labels;
  task.sig.labels = static_cast<std::uint8_t>(labels);
  task.sig.original_ttl = rrset.ttl;
  task.sig.inception = inception;
  task.sig.expiration = expiration;
  task.sig.key_tag = tag;
  task.sig.signer = signer;
  task.data = signing_data(task.sig, rrset);
  return task;
}

ResourceRecord finish_sig_task(const SigTask& task, Bytes signature) {
  SigRdata sig = task.sig;
  sig.signature = std::move(signature);
  ResourceRecord rr;
  rr.name = task.owner;
  rr.type = RRType::kSIG;
  rr.ttl = task.ttl;
  rr.rdata = sig.encode();
  return rr;
}

bool verify_rrset_sig(const RRset& rrset, const SigRdata& sig,
                      const crypto::RsaPublicKey& pub) {
  if (sig.type_covered != rrset.type) return false;
  RRset normalized = rrset;
  normalized.ttl = sig.original_ttl;
  // Fewer labels in the SIG than in the owner: the records were synthesized
  // from a wildcard; verify against the wildcard owner.
  if (sig.labels < rrset.name.label_count()) {
    normalized.name =
        rrset.name.parent(rrset.name.label_count() - sig.labels).child("*");
  }
  const Bytes data = signing_data(sig, normalized);
  return crypto::rsa_verify_sha1(pub, data, sig.signature);
}

ResourceRecord sign_rrset(const RRset& rrset, const Name& signer, std::uint16_t tag,
                          std::uint32_t inception, std::uint32_t expiration,
                          const SignFn& sign) {
  SigTask task = make_sig_task(rrset, signer, tag, inception, expiration);
  return finish_sig_task(task, sign(task.data));
}

std::size_t sign_zone(Zone& zone, const crypto::RsaPublicKey& pub, std::uint32_t inception,
                      std::uint32_t expiration, const SignFn& sign) {
  const std::uint32_t key_ttl = [&] {
    auto soa = zone.soa();
    return soa ? soa->minimum : 300u;
  }();
  zone.add_record(make_zone_key_record(zone.origin(), key_ttl, pub));
  zone.rebuild_nxt_chain();

  const KeyRdata key = KeyRdata::decode(
      zone.find(zone.origin(), RRType::kKEY)->rdatas.front());
  const std::uint16_t tag = key_tag(key);

  // Collect targets first: signing mutates the zone (adds SIG RRsets).
  std::vector<RRset> targets;
  zone.for_each_rrset([&](const RRset& rrset) {
    if (rrset.type != RRType::kSIG) targets.push_back(rrset);
  });
  for (const auto& rrset : targets) {
    zone.remove_sigs(rrset.name, rrset.type);
    zone.add_record(
        sign_rrset(rrset, zone.origin(), tag, inception, expiration, sign));
  }
  return targets.size();
}

namespace {

/// The apex KEY's public key, which must equal `trusted` when one is given;
/// nullopt (with `result.first_error` set) otherwise.
std::optional<crypto::RsaPublicKey> apex_key(const Zone& zone,
                                             const crypto::RsaPublicKey* trusted,
                                             ZoneVerifyResult& result) {
  const RRset* key_rrset = zone.find(zone.origin(), RRType::kKEY);
  if (!key_rrset || key_rrset->rdatas.empty()) {
    result.first_error = "zone has no apex KEY record";
    return std::nullopt;
  }
  crypto::RsaPublicKey pub;
  try {
    pub = zone_key_from_record(KeyRdata::decode(key_rrset->rdatas.front()));
  } catch (const util::ParseError& e) {
    result.first_error = std::string("bad KEY record: ") + e.what();
    return std::nullopt;
  }
  if (trusted && !(pub == *trusted)) {
    result.first_error = "apex KEY is not the trusted zone key";
    return std::nullopt;
  }
  return pub;
}

/// `rrset` (never a SIG) must carry a SIG at its owner that verifies under
/// `pub`.
bool check_sig(const Zone& zone, const RRset& rrset, const crypto::RsaPublicKey& pub,
               ZoneVerifyResult& result) {
  if (const RRset* sigs = zone.find(rrset.name, RRType::kSIG)) {
    for (const auto& rd : sigs->rdatas) {
      try {
        const SigRdata sig = SigRdata::decode(rd);
        if (sig.type_covered == rrset.type && verify_rrset_sig(rrset, sig, pub)) {
          ++result.verified;
          return true;
        }
      } catch (const util::ParseError&) {
      }
    }
  }
  result.first_error =
      "no verifying SIG for " + rrset.name.to_string() + " " + to_string(rrset.type);
  return false;
}

/// `owner` must hold exactly one NXT, and it must name `next`.
bool check_nxt(const Zone& zone, const Name& owner, const Name& next,
               ZoneVerifyResult& result) {
  const RRset* nxt = zone.find(owner, RRType::kNXT);
  if (!nxt || nxt->rdatas.size() != 1) {
    result.first_error = "missing NXT at " + owner.to_string();
    return false;
  }
  NxtRdata rd;
  try {
    rd = NxtRdata::decode(nxt->rdatas.front());
  } catch (const util::ParseError&) {
    result.first_error = "bad NXT record at " + owner.to_string();
    return false;
  }
  if (!(rd.next == next)) {
    result.first_error = "NXT chain broken at " + owner.to_string();
    return false;
  }
  return true;
}

/// Whole-zone verification under the apex KEY, which must equal `trusted`
/// when one is given.
ZoneVerifyResult verify(const Zone& zone, const crypto::RsaPublicKey* trusted) {
  ZoneVerifyResult result;
  const auto pub = apex_key(zone, trusted, result);
  if (!pub) return result;

  // Every non-SIG RRset must have a verifying SIG at its owner.
  bool ok = true;
  zone.for_each_rrset([&](const RRset& rrset) {
    if (ok && rrset.type != RRType::kSIG) ok = check_sig(zone, rrset, *pub, result);
  });
  if (!ok) return result;

  // NXT chain: every name must have exactly one NXT; the chain must be a
  // single cycle through all names in canonical order.
  const auto names = zone.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!check_nxt(zone, names[i], names[(i + 1) % names.size()], result)) return result;
  }
  result.ok = true;
  return result;
}

}  // namespace

ZoneVerifyResult verify_zone(const Zone& zone) { return verify(zone, nullptr); }

ZoneVerifyResult verify_zone(const Zone& zone, const crypto::RsaPublicKey& trusted) {
  return verify(zone, &trusted);
}

ZoneVerifyResult verify_zone_changes(const Zone& zone, const Zone::PreImages& touched,
                                     const crypto::RsaPublicKey& trusted) {
  ZoneVerifyResult result;
  const auto pub = apex_key(zone, &trusted, result);
  if (!pub) return result;
  const auto chain_ok_at = [&](const Name& owner) {
    return check_nxt(zone, owner, *zone.cyclic_successor(owner), result);
  };
  for (const auto& [owner, before] : touched) {
    // An untouched owner kept its records and SIGs, so only its NXT can have
    // gone stale, and only when a name just after it came or went: it is
    // then the cyclic predecessor of a touched owner.
    if (const Name* pred = zone.cyclic_predecessor(owner); pred && !chain_ok_at(*pred)) {
      return result;
    }
    if (!zone.name_exists(owner)) continue;
    for (const auto& rrset : zone.rrsets_at(owner)) {
      if (rrset.type != RRType::kSIG && !check_sig(zone, rrset, *pub, result)) return result;
    }
    if (!chain_ok_at(owner)) return result;
  }
  result.ok = true;
  return result;
}

}  // namespace sdns::dns
