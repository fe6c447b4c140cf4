// SHA-256 (FIPS 180-2).  Used for Fiat-Shamir challenges in the threshold
// signature correctness proofs and for the common-coin derivation — places
// where we need a hash but are not bound by the 2004 DNSSEC wire format.
#pragma once

#include "crypto/md_hash.hpp"

namespace sdns::crypto {

class Sha256 : public MdHash<Sha256, 8> {
 private:
  friend class MdHash<Sha256, 8>;
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                             0xa54ff53a, 0x510e527f, 0x9b05688c,
                                             0x1f83d9ab, 0x5be0cd19};
  void process_block(const std::uint8_t* block);
};

}  // namespace sdns::crypto
