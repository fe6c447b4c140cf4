// Cluster material generation — the trusted dealer of §4.3, as a library.
//
// generate_cluster() performs everything the paper's "key generation utility
// run by a trusted entity" does: it deals the SINTRA group keys, deals the
// (n, t) threshold zone key, signs the initial zone by assembling t+1 shares
// (the private exponent never exists anywhere), and writes one config file
// plus the per-replica private material into a directory, ready for n sdnsd
// processes to boot against. sdns_keygen is a thin CLI over this; the
// loopback integration test calls it directly.
#pragma once

#include <string>
#include <vector>

#include "net/runtime.hpp"

namespace sdns::net {

struct ClusterOptions {
  unsigned n = 4;
  unsigned t = 1;
  std::size_t key_bits = 512;  ///< 512 and 1024 use safe-prime fixtures
  threshold::SigProtocol sig_protocol = threshold::SigProtocol::kOptTE;
  bool disseminate_reads = false;
  bool require_tsig = false;
  std::string tsig_name = "update-key";
  std::string tsig_secret_hex;  ///< empty: derived from seed
  std::string origin = "example.com.";
  std::string zone_text;  ///< master-file text; empty = a small default zone
  std::uint64_t seed = 1;
  unsigned shards = 1;  ///< frontend shards per replica (SO_REUSEPORT group)
  /// Give each replica a durable zone store: config i gets
  /// `data_dir = <dir>/data<i>`, so a respawned replica recovers from disk
  /// before asking the peers for anything.
  bool durable = false;
  /// WAL snapshot threshold for durable replicas (bytes; 0 disables).
  std::uint64_t snapshot_log_bytes = 4ull << 20;

  std::string dns_host = "127.0.0.1";
  std::uint16_t dns_base_port = 5300;   ///< replica i serves dns_base_port + i
  std::uint16_t mesh_base_port = 5400;  ///< replica i's mesh listener

  /// Replication edges: each gets an edge<k>.conf (sdns_edge config) that
  /// bootstraps via AXFR from the core and refreshes on NOTIFY/IXFR, and
  /// every replica gets a `notify =` line per edge. 0 = no edge material.
  unsigned edges = 0;
  std::uint16_t edge_base_port = 5500;  ///< edge k serves edge_base_port + k
  /// IXFR journal depth written into replica configs (0 = keep the default).
  std::size_t journal_limit = 0;
};

struct ClusterFiles {
  std::vector<std::string> configs;  ///< per-replica sdnsd config paths
  std::vector<SockAddr> dns_addrs;   ///< client-facing endpoints
  /// Per-replica durable-store directories; empty unless durable was set.
  std::vector<std::string> data_dirs;
  std::vector<std::string> edge_configs;  ///< per-edge sdns_edge config paths
  std::vector<SockAddr> edge_addrs;       ///< edge client-facing endpoints
  std::string tsig_name;
  std::string tsig_secret_hex;
  crypto::RsaPublicKey zone_key;  ///< for client-side DNSSEC verification
};

/// Deal keys, sign the zone, and write everything under `dir` (which must
/// already exist). Throws NetError / std::logic_error on failure.
ClusterFiles generate_cluster(const std::string& dir, const ClusterOptions& options);

/// Sixteen consecutive loopback ports this process, and every child it
/// forks, holds exclusively until destruction: enough for a test cluster's
/// DNS, mesh and edge listeners. Blocks lie in [20000, 32768), below the
/// kernel's default ephemeral range (32768-60999), so no outbound socket is
/// ever handed one of them; an flock(2) on a per-block lock file in /tmp
/// keeps concurrent holders (parallel ctest jobs) apart. Throws NetError
/// when every block is held.
class PortBlock {
 public:
  static constexpr std::uint16_t kPorts = 16;

  PortBlock();
  ~PortBlock();
  PortBlock(const PortBlock&) = delete;
  PortBlock& operator=(const PortBlock&) = delete;

  std::uint16_t base() const { return base_; }

 private:
  int fd_ = -1;
  std::uint16_t base_ = 0;
};

}  // namespace sdns::net
