// ReplicatedService — the whole system assembled on the simulated testbed.
//
// Builds, for one experiment configuration: the topology's machines and
// links (sim::Testbed), the trusted-dealer key material (abcast group keys
// plus the shared zone key, §4.3), the initial threshold-signed zone, n
// ReplicaNodes, and a client on the Zurich LAN; then exposes synchronous
// dig/nsupdate-style operations that drive the simulator until the client
// accepts a response.  Every test, benchmark, and example builds on this.
#pragma once

#include <memory>

#include "core/client.hpp"
#include "core/replica.hpp"
#include "sim/costmodel.hpp"
#include "sim/network.hpp"
#include "sim/testbed.hpp"
#include "store/durable.hpp"

namespace sdns::core {

struct ServiceOptions {
  sim::Topology topology = sim::Topology::kInternet4;
  threshold::SigProtocol sig_protocol = threshold::SigProtocol::kOptTE;
  ClientMode client_mode = ClientMode::kPragmatic;
  bool zone_signed = true;
  bool disseminate_reads = true;
  bool verify_responses = true;  ///< client checks SIGs under the zone key
  /// Replica ids simulating corruption, and how they misbehave.
  std::vector<unsigned> corrupted;
  CorruptionMode corruption_mode = CorruptionMode::kFlipShares;
  /// Per-replica override of `corruption_mode` (chaos campaigns mix
  /// misbehaviors); replicas listed here are corrupt even if absent from
  /// `corrupted`.
  std::map<unsigned, CorruptionMode> corruption_by_replica;
  /// Replica the pragmatic client contacts first (a healthy Zurich server).
  unsigned gateway = 1;
  std::size_t key_bits = 512;  ///< 512 or 1024 use safe-prime fixtures
  std::uint64_t seed = 1;
  double client_timeout = 10.0;
  double complaint_timeout = 5.0;
  bool require_tsig = false;
  sim::CostModel cost_model;
  /// Per-replica durable store directories (src/store); replica i persists
  /// its WAL and snapshots in data_dirs[i] when set and non-empty. A second
  /// service constructed over the same directories boots disk-first: each
  /// replica restores its snapshot + WAL tail before any traffic, and the
  /// replayed signing sessions complete cooperatively across the cluster.
  std::vector<std::string> data_dirs;
  /// Snapshot threshold for durable replicas (WAL bytes; 0 disables).
  std::uint64_t snapshot_log_bytes = 4ull << 20;
  /// Called (optional) with (replica, generation) at each of a replica's
  /// commit points — where the deployed runtime sends NOTIFY.
  std::function<void(unsigned, std::uint64_t)> zone_committed;
};

class ReplicatedService {
 public:
  /// `zone_text` is parsed relative to `origin` (see dns::Zone::from_text).
  ReplicatedService(ServiceOptions options, const dns::Name& origin,
                    std::string_view zone_text);

  unsigned n() const { return n_; }
  unsigned t() const { return t_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return *net_; }
  Client& client() { return *client_; }
  ReplicaNode& replica(unsigned i) { return *replicas_[i]; }
  /// Replica i's durable store, or null when it runs in-memory.
  store::DurableZoneStore* store(unsigned i) { return stores_[i].get(); }
  const crypto::RsaPublicKey& zone_public_key() const { return zone_pub_rsa_; }
  const dns::TsigKey& tsig_key() const { return tsig_key_; }

  struct OpResult {
    bool ok = false;
    dns::Message response;
    double latency = 0;
    unsigned tries = 1;
  };

  /// dig: run a query to completion (drives the simulator).
  OpResult query(const dns::Name& name, dns::RRType type);

  /// nsupdate add: read (nsupdate always queries first) then add an A record.
  /// Returns the update's result; read+update latency is summed like the
  /// paper's Table 2 measurements.
  OpResult add_record(const dns::Name& name, const std::string& address);

  /// nsupdate delete: read then delete the A RRset at `name`.
  OpResult delete_record(const dns::Name& name);

  /// Send a raw prepared update message (TSIG applied per options).
  OpResult send_update(dns::Message update);

  /// Drain all remaining simulator events (replica-side completion).
  void settle() { sim_.run(); }

  /// Proactive share refresh (§4.3): re-deal the zone key's shares (same
  /// N and e, fresh polynomial and verification values) and install them on
  /// every replica except those in `skip` — typically replicas currently
  /// crashed, which come back holding a stale, useless share. Requires the
  /// fixture key sizes (512/1024 bits) whose primes are known.
  void refresh_zone_shares(const std::vector<unsigned>& skip = {});

  /// Hand replica `i` the share it missed during the last refresh (the
  /// repaired-server handoff from the offline dealer).
  void install_refreshed_share(unsigned i);

 private:
  OpResult run_query_op(const dns::Name& name, dns::RRType type);
  OpResult run_update_op(dns::Message update);
  void drive(const bool& done);

  ServiceOptions opt_;
  unsigned n_ = 0;
  unsigned t_ = 0;
  sim::Simulator sim_;
  sim::Testbed bed_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<Client> client_;
  /// Declared before replicas_: a replica appends to its store from the
  /// delivery callback, so stores must be destroyed after the replicas.
  std::vector<std::unique_ptr<store::DurableZoneStore>> stores_;
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  std::shared_ptr<threshold::ThresholdPublicKey> zone_pub_;
  std::optional<threshold::DealtKey> last_refresh_;
  std::uint64_t refresh_count_ = 0;
  crypto::RsaPublicKey zone_pub_rsa_;
  dns::TsigKey tsig_key_;
  dns::Name origin_;
};

}  // namespace sdns::core
