// net::EdgeRuntime — a stateless serving edge of the replicated zone.
//
// The paper's core (n replicas, atomic broadcast, threshold signing) is the
// write path; an edge is pure read fan-out. It runs the same frontend shard
// group and packet cache as a replica but holds NO key share and NO replica:
// it bootstraps its zone copy with AXFR from any core replica, refreshes it
// with IXFR when a core replica NOTIFYs (RFC 1996), and polls the SOA on a
// refresh interval as the lost-NOTIFY backstop. Every received zone —
// bootstrap or incremental — is verified against the dealt threshold zone
// key (apex KEY must carry the dealt modulus, and every RRset's SIG must
// check out) before it is swapped in, so a compromised or spoofed core
// replica cannot feed an edge a forged zone: the edge trusts the threshold
// signature, not the transfer channel. That is what makes edges safe to
// multiply — they add serving capacity without adding signing parties.
//
// Threading: the frontends and zone swap run on the owning loop (plus shard
// threads — the same net::FrontendGroup a ReplicaRuntime runs); one
// transfer worker thread does the blocking AXFR/IXFR + verification and
// posts verified zones to the loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "crypto/rsa.hpp"
#include "dns/server.hpp"
#include "net/resolver.hpp"
#include "net/serving.hpp"

namespace sdns::net {

/// The sdns_edge config file (`key = value`, same format as sdnsd's).
struct EdgeConfig : ServingConfig {
  std::string origin = ".";
  std::string zone_public;  ///< dealt threshold zone key (the trust anchor)
  /// Core replica DNS endpoints, one `core = host:port` line each. Transfers
  /// rotate through them, so any t+1 crashed replicas leave the edge live.
  std::vector<SockAddr> core;
  /// SOA-refresh polling backstop: even with every NOTIFY lost, the edge
  /// IXFRs at most this many seconds behind the core.
  double refresh_interval = 30.0;
  /// Retry cadence while bootstrapping or after a failed transfer.
  double retry_interval = 2.0;
  double transfer_timeout = 5.0;  ///< per-attempt transfer receive timeout
  std::uint64_t seed = 0;

  /// Parse the config file; throws NetError with the offending line.
  static EdgeConfig load(const std::string& path);
};

class EdgeRuntime {
 public:
  EdgeRuntime(EventLoop& loop, EdgeConfig config);
  ~EdgeRuntime();

  /// Bind the frontend shards, start the transfer worker, and kick off the
  /// AXFR bootstrap.
  void start();

  DnsFrontend& frontend(unsigned shard = 0) { return frontends_->frontend(shard); }
  unsigned shard_count() const { return frontends_->size(); }
  const EdgeConfig& config() const { return cfg_; }
  obs::Registry& registry() { return registry_; }

  /// Edge-local zone generation: 0 until the bootstrap installs, bumped on
  /// every verified swap. The packet cache keys off it exactly as it keys
  /// off a replica's generation.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// True once a verified zone is serving.
  bool ready() const { return generation() > 0; }

  /// Ask the transfer worker for a refresh now (thread-safe) — the NOTIFY
  /// handler's hook, also usable from tests.
  void request_refresh();

 private:
  /// Runs on the main loop: NOTIFY ack + refresh trigger, CH stats, XFR-out,
  /// or a plain query against the verified zone copy.
  void handle_request(ClientId client, util::BytesView wire);
  void refresh_gauges();

  // ---- transfer worker ----
  void transfer_worker();
  void refresh_once(StubResolver& resolver);

  EventLoop& loop_;
  EdgeConfig cfg_;
  obs::Registry registry_;
  crypto::RsaPublicKey dealt_;  ///< the threshold zone key (trust anchor)

  /// Main-loop only; null until the AXFR bootstrap verifies and installs.
  std::unique_ptr<dns::AuthoritativeServer> server_;
  std::atomic<std::uint64_t> generation_{0};
  /// Destroyed before registry_ and generation_, which its frontends use.
  std::unique_ptr<FrontendGroup> frontends_;

  // Worker state. `shadow_` is the worker's own zone copy — transfers apply
  // and verify against it off-loop, and only verified copies cross to the
  // main loop.
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool refresh_wanted_ = false;
  std::optional<dns::Zone> shadow_;

  obs::Counter* c_notifies_;
  obs::Counter* c_axfr_bootstraps_;
  obs::Counter* c_ixfr_applied_;
  obs::Counter* c_up_to_date_;
  obs::Counter* c_refreshes_;
  obs::Counter* c_transfer_failures_;
  obs::Counter* c_verify_failures_;
  obs::Counter* c_queries_preboot_;
};

}  // namespace sdns::net
