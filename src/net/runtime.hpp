// net::ReplicaRuntime — one replica of the intrusion-tolerant name service
// bound to real sockets.
//
// The protocol stack (core::ReplicaNode and everything beneath it) is
// untouched: it already speaks through injected send_replica / send_client
// callbacks and set_timer/now hooks. This file binds those callbacks to the
// epoll loop — mesh for replica traffic, DNS frontend for clients, loop
// timers for protocol timers — which is the whole argument that the same
// code runs simulated and deployed.
//
// RuntimeConfig is the sdnsd config file (the paper's Wrapper config §4.1:
// n, t, the identities of all servers, the signature protocol — plus the
// key-material paths the trusted dealer distributed §4.3).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/replica.hpp"
#include "net/mesh.hpp"
#include "net/notify.hpp"
#include "net/serving.hpp"
#include "store/durable.hpp"

namespace sdns::net {

/// The client-facing fields (listen_dns, shards, packet cache ...) come from
/// ServingConfig, shared with sdns_edge.
struct RuntimeConfig : ServingConfig {
  unsigned id = 0;
  unsigned n = 4;
  unsigned t = 1;
  threshold::SigProtocol sig_protocol = threshold::SigProtocol::kOptTE;
  bool disseminate_reads = false;  ///< direct reads: the §3.4 rare-update mode
  bool require_tsig = false;
  std::string tsig_name;
  std::string tsig_secret_hex;
  std::string origin = ".";

  // Key material and zone data written by the dealer (sdns_keygen).
  std::string zone_file;      ///< threshold-signed zone, dns::Zone wire form
  std::string group_public;   ///< abcast::GroupPublic
  std::string node_secret;    ///< abcast::NodeSecret for this id
  std::string zone_public;    ///< threshold::ThresholdPublicKey
  std::string zone_share;     ///< threshold::KeyShare for this id
  std::string mesh_secret;    ///< shared link-authentication secret

  std::vector<SockAddr> mesh_peers;   ///< index = replica id (incl. self)

  /// Durable zone store directory (WAL + signed snapshots). Empty = purely
  /// in-memory; crash recovery then always needs a network state transfer.
  std::string data_dir;
  /// Snapshot (and truncate the WAL) once the log exceeds this many bytes;
  /// 0 disables size-triggered snapshots.
  std::uint64_t snapshot_log_bytes = 4ull << 20;
  /// Worker threads for parsing SDNSZONE2 zone payloads (boot zone file and
  /// snapshot recovery). 0 = one per hardware thread, capped by chunk count.
  unsigned parse_threads = 0;

  bool recover = false;        ///< run snapshot recovery after boot (§4.3)
  double recover_delay = 1.0;  ///< let mesh links come up first
  double complaint_timeout = 5.0;
  /// Replication edge: RFC 1996 NOTIFY targets, one `notify = host:port`
  /// config line per edge. Empty = no notifier.
  std::vector<SockAddr> notify_edges;
  /// IXFR journal depth before old serials fall back to AXFR.
  std::size_t journal_limit = 64;
  std::uint64_t seed = 0;  ///< 0: derive from pid/clock (nonces, jitter)
  /// Log one counter-summary line every this many seconds (0 disables).
  double stats_interval = 0;
  /// TSIG timestamp acceptance window, seconds (RFC 2845 "fudge").
  std::uint64_t tsig_fudge = 300;

  // ---- wire-level chaos (net/wirefault.hpp) ----
  /// Path to a serialized sim::FaultSchedule (sim::serialize form); empty =
  /// no fault injection.
  std::string fault_schedule;
  std::uint64_t fault_seed = 0;      ///< injector decision seed
  double fault_time_scale = 1.0;     ///< wall seconds per schedule second
  /// Absolute CLOCK_MONOTONIC second that schedule time 0 maps to. 0 = arm
  /// at start(). CLOCK_MONOTONIC is machine-wide, so a forked harness sets
  /// one value for all replicas — including respawned ones, whose fault
  /// windows then stay aligned with the rest of the cluster.
  double fault_start = 0;
  /// Figure-1 WAN topology name (sim::to_string(Topology)); empty = no
  /// per-link latency floor.
  std::string fault_wan;
  /// Byzantine behavior for THIS replica (chaos campaigns only).
  core::CorruptionMode corruption = core::CorruptionMode::kHonest;

  /// Parse the `key = value` config file format. Throws NetError with the
  /// offending line on malformed input.
  static RuntimeConfig load(const std::string& path);
};

/// Read a whole file; throws NetError if unreadable.
util::Bytes read_file(const std::string& path);
/// Write a whole file; throws NetError on failure.
void write_file(const std::string& path, util::BytesView data);

/// One replica process: the protocol stack on the main loop, plus a
/// FrontendGroup of N shards (net/serving.hpp). The kernel spreads client
/// flows across the shards; cache hits complete entirely on the shard
/// thread, and only misses cross to the main loop where the replicated
/// state machine runs unchanged.
class ReplicaRuntime {
 public:
  ReplicaRuntime(EventLoop& loop, RuntimeConfig config);

  /// Bind sockets (shard 0 first, resolving port 0 for the REUSEPORT
  /// group), start shard threads, connect the mesh, and (if configured)
  /// schedule recovery.
  void start();

  core::ReplicaNode& replica() { return *replica_; }
  /// Shard 0's frontend (the main-loop one).
  DnsFrontend& frontend(unsigned shard = 0) { return frontends_->frontend(shard); }
  unsigned shard_count() const { return frontends_->size(); }
  Mesh& mesh() { return *mesh_; }
  const RuntimeConfig& config() const { return cfg_; }
  /// The counters every component of this runtime counts into.
  obs::Registry& registry() { return registry_; }

 private:
  void log_stats_line();
  /// Exports the replica's observe() as gauges just before each scrape:
  /// derived state, not hot-path counters.
  void refresh_gauges();
  /// Runs on the main loop. CHAOS-class queries (`stats.sdns.`, and the
  /// `recover.sdns.` recovery nudge) and AXFR/IXFR are answered locally,
  /// bypassing atomic broadcast — a transfer reads the zone plus journal at
  /// a commit point (ReplicaNode::at_commit). Everything else feeds the
  /// replica. `wire` stays valid for the duration of the call only.
  void handle_request(ClientId client, util::BytesView wire);

  EventLoop& loop_;
  RuntimeConfig cfg_;
  obs::Registry registry_;  ///< must outlive frontend/mesh/replica below
  /// Wire-level chaos injector; null unless fault_schedule/fault_wan is
  /// configured. Constructed before the transports that reference it.
  std::unique_ptr<FaultInjector> injector_;
  /// Durable zone store; null unless data_dir is configured. Must outlive
  /// replica_, which appends to it from the delivery callback.
  std::unique_ptr<store::DurableZoneStore> store_;
  std::unique_ptr<core::ReplicaNode> replica_;
  std::unique_ptr<Mesh> mesh_;
  /// RFC 1996 NOTIFY fan-out; null unless notify_edges is configured.
  std::unique_ptr<Notifier> notifier_;
  /// Declared last so it is destroyed first: its shard threads are joined
  /// before the registry, the replica and its generation counter go away.
  std::unique_ptr<FrontendGroup> frontends_;
};

/// A ReplicaRuntime's observe() fields read back from its scrape_counters():
/// the inverse of its protocol-state gauges.
core::ReplicaObservation observation_from_counters(
    const std::map<std::string, std::int64_t>& counters);

}  // namespace sdns::net
