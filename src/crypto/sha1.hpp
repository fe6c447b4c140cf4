// SHA-1 (FIPS 180-1).
//
// The paper's zone signatures are "1024-bit RSA with SHA-1 and PKCS#1
// encoding"; DNSSEC algorithm 5 (RSA/SHA-1) is what our SIG records carry.
// SHA-1 is cryptographically broken today — it is implemented here solely to
// reproduce the 2004 system faithfully.
#pragma once

#include "crypto/md_hash.hpp"

namespace sdns::crypto {

class Sha1 : public MdHash<Sha1, 5> {
 private:
  friend class MdHash<Sha1, 5>;
  static constexpr std::uint32_t kInit[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE,
                                             0x10325476, 0xC3D2E1F0};
  void process_block(const std::uint8_t* block);
};

}  // namespace sdns::crypto
