// Configuration of the replicated name service (the Wrapper's config file,
// §4.1: "values of n and t, the identities of all servers for the zone, and
// the threshold signature protocol to use").
#pragma once

#include <cstdint>
#include <vector>

#include "dns/server.hpp"
#include "threshold/protocol.hpp"

namespace sdns::core {

/// How a client interacts with the service.
enum class ClientMode : std::uint8_t {
  /// §3.4: unmodified client; sends to one server (the gateway), accepts the
  /// first acceptable response, retries the next server on timeout.
  /// Achieves G1'/G2'.
  kPragmatic = 0,
  /// §3.3: modified client; sends to all replicas and takes the majority
  /// (>= t+1 identical) among n-t responses. Achieves G1/G2.
  kVoting = 1,
};

const char* to_string(ClientMode m);

/// Replica misbehaviors for experiments (§4.4 uses kFlipShares).
enum class CorruptionMode : std::uint8_t {
  kHonest = 0,
  /// Invert all bits of threshold signature shares before sending.
  kFlipShares = 1,
  /// Ignore client requests and send no responses (crash-like).
  kMute = 2,
  /// Answer queries with a cached stale response (the §3.4 replay attack).
  kStaleReplay = 3,
  /// As the epoch's atomic-broadcast leader, bind sequence numbers to a
  /// phantom digest for half of the peers (equivocation / data withholding).
  kEquivocate = 4,
  /// Gateway role: replace the client's request with random bytes before
  /// disseminating it over atomic broadcast.
  kGarbagePayload = 5,
  /// Send uniformly random threshold signature shares (worse than
  /// kFlipShares: not even a deterministic corruption of the real share).
  kGarbageShares = 6,
};

const char* to_string(CorruptionMode m);

struct ReplicaConfig {
  unsigned n = 4;
  unsigned t = 1;
  threshold::SigProtocol sig_protocol = threshold::SigProtocol::kOptTE;
  /// Zones with rare updates may skip atomic broadcast for reads (§3.4).
  bool disseminate_reads = true;
  /// (1,0) base case: unmodified named, no replication machinery at all.
  bool base_case = false;
  dns::UpdatePolicy update_policy;
  std::uint32_t signature_validity = 30 * 24 * 3600;
  double complaint_timeout = 5.0;
  /// IXFR journal depth (AuthoritativeServer::set_journal_limit): how many
  /// committed update diffs are kept for incremental transfers before old
  /// serials fall back to AXFR.
  std::size_t journal_limit = 64;
};

}  // namespace sdns::core
