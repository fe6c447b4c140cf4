// DNSSEC zone signing (RFC 2535 era, as the paper uses it).
//
// A signed zone carries a KEY record at its apex with the zone's RSA public
// key and, for every RRset, a SIG record computed over the canonical form of
// the RRset.  The paper's contribution is *who* computes these signatures:
// instead of one server holding sk_zone, the signature is produced by the
// threshold protocol.  To support that, signing is split into two steps:
//
//   SigTask task = make_sig_task(rrset, ...);   // what must be signed
//   ... obtain `sig` over task.data somehow ... // locally or via threshold
//   ResourceRecord rr = finish_sig_task(task, sig);
//
// A synchronous convenience path (sign_rrset / ZoneSigner) covers local keys
// and the initial zone-signing command of §4.3.
#pragma once

#include <functional>

#include "crypto/rsa.hpp"
#include "dns/rr.hpp"
#include "dns/zone.hpp"

namespace sdns::dns {

/// RFC 2535 §4.1.6 key tag (checksum-style identifier of the zone key).
std::uint16_t key_tag(const KeyRdata& key);

/// Build the apex KEY record for an RSA public key.
ResourceRecord make_zone_key_record(const Name& zone, std::uint32_t ttl,
                                    const crypto::RsaPublicKey& pub);

/// Extract the RSA public key from a KEY record.
crypto::RsaPublicKey zone_key_from_record(const KeyRdata& key);

/// A pending signature: the SIG RDATA fields and the exact bytes to sign.
struct SigTask {
  Name owner;           ///< where the SIG record will live
  std::uint32_t ttl = 0;
  SigRdata sig;         ///< all fields filled except `signature`
  util::Bytes data;     ///< presignature prefix || canonical RRset

  friend bool operator==(const SigTask& a, const SigTask& b) {
    return a.owner == b.owner && a.data == b.data;
  }
};

/// Prepare the signing task for an RRset (RFC 2535 §4.1.8 data layout:
/// SIG RDATA sans signature, then each RR in canonical form sorted by RDATA).
SigTask make_sig_task(const RRset& rrset, const Name& signer, std::uint16_t tag,
                      std::uint32_t inception, std::uint32_t expiration);

/// Attach the signature bytes, yielding the complete SIG record.
ResourceRecord finish_sig_task(const SigTask& task, util::Bytes signature);

/// Verify a SIG record over an RRset with the zone key.
bool verify_rrset_sig(const RRset& rrset, const SigRdata& sig,
                      const crypto::RsaPublicKey& pub);

/// Raw-signing callback: given the exact data bytes, return signature bytes.
using SignFn = std::function<util::Bytes(util::BytesView data)>;

/// Synchronous one-RRset signing.
ResourceRecord sign_rrset(const RRset& rrset, const Name& signer, std::uint16_t tag,
                          std::uint32_t inception, std::uint32_t expiration,
                          const SignFn& sign);

/// Sign an entire zone in place: installs the apex KEY record, rebuilds the
/// NXT chain, and writes a SIG for every RRset (except SIGs themselves).
/// Returns the number of signatures computed. This is the paper's §4.3
/// "special command ... to sign the zone data using the distributed key";
/// with a threshold `sign` callback the private key never materializes.
std::size_t sign_zone(Zone& zone, const crypto::RsaPublicKey& pub, std::uint32_t inception,
                      std::uint32_t expiration, const SignFn& sign);

/// Whole-zone verification: every non-SIG RRset must carry a verifying SIG
/// under the apex KEY, and the NXT chain must be closed and consistent.
struct ZoneVerifyResult {
  bool ok = false;
  std::size_t verified = 0;
  std::string first_error;  ///< empty when ok
};
ZoneVerifyResult verify_zone(const Zone& zone);
/// The trust gate for zones received from a peer: the apex KEY must be
/// `trusted` (the dealt zone key), and the zone must verify under it. The
/// one-argument form alone accepts a zone self-signed under any key.
ZoneVerifyResult verify_zone(const Zone& zone, const crypto::RsaPublicKey& trusted);
/// The trust gate for a diff applied under a capture, in O(change): the apex
/// KEY must still be `trusted`; every non-SIG RRset at a `touched` owner must
/// carry a SIG verifying under it; and each touched owner that exists, plus
/// the cyclic canonical predecessor of every touched owner, must hold exactly
/// one NXT naming its cyclic successor. Owners outside `touched` kept their
/// records, so when the zone verified in full before the diff, this verdict
/// equals a full verify_zone(zone, trusted) after it.
ZoneVerifyResult verify_zone_changes(const Zone& zone, const Zone::PreImages& touched,
                                     const crypto::RsaPublicKey& trusted);

}  // namespace sdns::dns
