// net::EdgeRuntime — a stateless serving edge of the replicated zone.
//
// The paper's core (n replicas, atomic broadcast, threshold signing) is the
// write path; an edge is pure read fan-out. It runs the same frontend shard
// group and packet cache as a replica but holds NO key share and NO replica:
// it bootstraps its zone copy with AXFR from any core replica, refreshes it
// with IXFR when a core replica NOTIFYs (RFC 1996), and polls the SOA on a
// refresh interval as the lost-NOTIFY backstop. Every received zone is
// checked against the dealt threshold zone key before it serves, so a
// compromised or spoofed core replica cannot feed an edge a forged zone: the
// edge trusts the threshold signature, not the transfer channel. That is
// what makes edges safe to multiply — they add serving capacity without
// adding signing parties.
//
// The check costs what changed. An AXFR (bootstrap, or a journal gap) is
// verified in full: apex KEY == the dealt key, every RRset's SIG, the whole
// NXT chain. An IXFR is applied in place to the one serving zone under a
// capture and verified over the owners it touched plus their NXT
// neighbours (dns::verify_zone_changes); a diff that fails is rolled back.
// Since the base verified in full, base + checked diff is a zone that
// verifies in full.
//
// Threading: the frontends, the serving zone, and every IXFR apply, verify
// and rollback run on the owning loop (plus shard threads — the same
// net::FrontendGroup a ReplicaRuntime runs). One transfer worker thread does
// the blocking AXFR/IXFR fetches and the full verify of an AXFR, and waits
// for the loop's verdict on each IXFR before asking for the next.
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
  /// Hands an IXFR response to the loop and waits for apply_ixfr's result
  /// (nullopt if the edge stops first).
  std::optional<dns::SoaRdata> apply_ixfr_on_loop(dns::Message response);

  /// Loop thread: apply an IXFR to the serving zone under a capture and keep
  /// it only if verify_zone_changes accepts it. Returns the SOA now served.
  std::optional<dns::SoaRdata> apply_ixfr(const dns::Message& response);

  EventLoop& loop_;
  EdgeConfig cfg_;
  obs::Registry registry_;
  crypto::RsaPublicKey dealt_;  ///< the threshold zone key (trust anchor)

  /// Main-loop only; null until the AXFR bootstrap verifies and installs.
  std::unique_ptr<dns::AuthoritativeServer> server_;
  std::atomic<std::uint64_t> generation_{0};
  /// Destroyed before registry_ and generation_, which its frontends use.
  std::unique_ptr<FrontendGroup> frontends_;

  // Worker state. `serving_soa_` is the SOA the loop serves, as the last
  // install or IXFR verdict reported it (nullopt: bootstrap next).
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool refresh_wanted_ = false;
  std::optional<dns::SoaRdata> serving_soa_;

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
