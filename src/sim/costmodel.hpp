// CPU cost model for cryptographic and DNS operations.
//
// The paper measured 1024-bit threshold RSA implemented with Java BigInteger
// on a 266 MHz Pentium II; our C++ runs the same algorithms orders of
// magnitude faster.  To reproduce the paper's *latencies* we therefore run
// the real protocols but charge virtual CPU seconds from this table,
// calibrated against Table 3 of the paper:
//
//     generate share (value + proof)  0.82 s
//     verify share (proof check)      0.78 s
//     assemble signature              0.05 s
//     verify final signature          0.003 s
//
// The share *value* alone costs one |2*Delta*s_i|-bit exponentiation; the
// proof costs roughly two more exponentiations with slightly longer
// exponents — hence the 0.25 / 0.57 split below (their sum is the measured
// 0.82).  Costs for a machine of speed f are the table value divided by f
// (speeds are relative to the Zurich PII-266, Table 1).
#pragma once

#include "threshold/protocol.hpp"

namespace sdns::sim {

struct CostModel {
  // Threshold signature operations (reference machine seconds).
  double share_value = 0.25;   ///< x^{2*Delta*s_i}
  double proof_gen = 0.57;     ///< correctness proof generation
  double proof_verify = 0.78;  ///< correctness proof verification
  double assemble = 0.05;      ///< Lagrange combination of t+1 shares
  double final_verify = 0.003; ///< y^e == x (small exponent)

  // Broadcast-layer operations. SINTRA's per-message work (serialization,
  // MAC-based authenticators) on the reference machine.
  double message_handle = 0.0015;  ///< fixed cost to process one message
  double auth_sign = 0.0020;       ///< authenticate an outgoing certificate vote
  double auth_verify = 0.0015;     ///< check one authenticator

  // named (BIND) costs. The base case (1,0) row of Table 2 shows an add at
  // 0.047 s and a delete at 0.022 s — consistent with named's C RSA signer
  // costing ~10 ms per 1024-bit signature on the PII-266 (4 vs 2 SIGs) plus
  // a small query/update engine cost.
  double dns_query = 0.003;
  double dns_update = 0.002;  ///< zone mutation excluding signatures
  double local_sign = 0.010;  ///< unmodified named signing with a local key

  double cost(threshold::CostEvent e) const {
    using E = threshold::CostEvent;
    switch (e) {
      case E::kShareValue: return share_value;
      case E::kProofGen: return proof_gen;
      case E::kProofVerify: return proof_verify;
      case E::kAssemble: return assemble;
      case E::kFinalVerify: return final_verify;
      case E::kMessage: return message_handle;
      case E::kAuthSign: return auth_sign;
      case E::kAuthVerify: return auth_verify;
      case E::kDnsQuery: return dns_query;
      case E::kDnsUpdate: return dns_update;
      case E::kLocalSign: return local_sign;
    }
    return 0;
  }
};

}  // namespace sdns::sim
