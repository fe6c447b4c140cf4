// ReplicaNode — the paper's Wrapper plus its modified `named`.
//
// One instance runs on every authoritative server of the zone.  It
//  - accepts client requests on "port 53" (on_client_request), acting as the
//    gateway of the pragmatic design: the request is disseminated to all
//    replicas over atomic broadcast (§3.4);
//  - executes delivered requests against its local zone copy in delivery
//    order (state-machine replication), strictly one at a time;
//  - for dynamic updates in the signed zone, runs the configured threshold
//    signature protocol (BASIC / OPTPROOF / OPTTE) once per SIG record the
//    update requires — sequentially, as the paper observed named does
//    (4 signatures for an add, 2 for a delete, §5.2);
//  - sends the response directly to the client (every replica does, so
//    voting clients can take a majority, §3.3).
//
// Corruption modes implement the paper's testbed misbehaviors (§4.4).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <set>

#include "abcast/broadcast.hpp"
#include "core/config.hpp"
#include "crypto/rsa.hpp"
#include "dns/server.hpp"
#include "store/store.hpp"
#include "threshold/protocol.hpp"

namespace sdns::core {

/// Clients are addressed by opaque ids (the simulator's node ids).
using ClientId = std::uint64_t;

/// What one replica looks like from outside — the one observation form:
/// ReplicaNode::observe() fills the protocol-state fields, the daemon
/// exports them as stats.sdns. gauges, and the sim and wire chaos campaigns
/// judge them with the same check_observations().
struct ReplicaObservation {
  unsigned id = 0;
  bool byzantine = false;  ///< corrupt replicas are exempt from invariants
  bool recovering = false;
  bool zone_signed = false;
  bool zone_verifies = false;
  std::uint64_t delivered = 0;  ///< atomic broadcast delivery cursor
  /// Epoch changes this replica initiated (abcast fallback activations).
  std::uint64_t fallbacks = 0;
  /// Malformed SIG rdatas the zone silently discarded (remove_sigs). Our
  /// own signers never emit undecodable SIGs, so any nonzero value in a
  /// fault-free run means zone bytes were corrupted in flight or at rest.
  std::uint64_t malformed_sigs = 0;
  /// The delivery chain covers sequences [digest_floor, delivered); -1 when
  /// the delivery log is empty. Both digests are 63-bit (top bit cleared)
  /// so they round-trip through an int64 gauge.
  std::int64_t digest_floor = -1;
  std::uint64_t delivery_digest = 0;
  std::uint64_t zone_digest = 0;  ///< of the zone's wire form
  /// Per-entry log (sequence -> payload digest); only the simulator fills it.
  std::map<std::uint64_t, abcast::Digest> delivery_log;
};

class ReplicaNode {
 public:
  struct Callbacks {
    /// Replica-to-replica channel (authenticated point-to-point links).
    std::function<void(unsigned to, const util::Bytes&)> send_replica;
    /// Reply channel to a client.
    std::function<void(ClientId, const util::Bytes&)> send_client;
    std::function<double()> now;
    std::function<void(double, std::function<void()>)> set_timer;
    /// Fired (optional) with the zone generation at each commit point: the
    /// end of an update batch that changed the zone (a lone update is a
    /// batch of one), once all its signatures are installed; a recovery or
    /// disk-restore reinstall; a key-share refresh. The runtime hangs RFC
    /// 1996 NOTIFY fan-out off this.
    std::function<void(std::uint64_t)> zone_committed;
    /// Cost hook (optional): every CPU-costed operation of this replica and
    /// of the protocols below it.
    std::function<void(threshold::CostEvent)> charge;
    /// Metrics sink; when null the replica owns a private registry so its
    /// counters (and the components' below it) are still introspectable.
    obs::Registry* metrics = nullptr;
    /// Durable zone store (write-ahead log + snapshots). When null the
    /// replica owns a no-op in-memory store, so the commit hook — append on
    /// delivery, fsync before the mutation applies, snapshot offer when
    /// idle — is exercised on every path, persisted or not.
    store::ZoneStoreIf* store = nullptr;
  };

  /// `zone_share` is this server's share of the zone key; `zone_key_pub` the
  /// threshold public key (both from the trusted dealer, §4.3).  In
  /// base_case mode, `local_key` signs instead and the group material is
  /// unused.
  ReplicaNode(ReplicaConfig config, std::shared_ptr<const abcast::GroupPublic> group,
              abcast::NodeSecret group_secret,
              std::shared_ptr<const threshold::ThresholdPublicKey> zone_key_pub,
              threshold::KeyShare zone_share, dns::Zone zone, Callbacks callbacks,
              util::Rng rng, CorruptionMode corruption = CorruptionMode::kHonest,
              std::shared_ptr<const crypto::RsaPrivateKey> local_key = nullptr);

  /// A DNS request arrived from a client (gateway role).
  void on_client_request(ClientId client, util::BytesView wire);

  /// A message from another replica (atomic broadcast or signing protocol).
  void on_replica_message(unsigned from, util::BytesView msg);

  /// Ask the other replicas for a zone snapshot (AXFR-style state transfer)
  /// and reinstall the freshest one that t+1 replicas vouch for — the
  /// recovery path for a repaired or long-partitioned server. Snapshots
  /// travel as the store's zone-state envelope; each is trusted because the
  /// zone is threshold-signed (store::make_zone_verifier checks it once, on
  /// arrival, under the dealt key); freshness comes from taking the highest
  /// execution counter among >= t+1 verified snapshots, at least one of
  /// which is honest.
  void start_recovery();
  bool recovering() const { return recovering_; }
  std::uint64_t recoveries_completed() const { return c_recoveries_->value(); }

  /// Disk-first recovery: install the state the durable store recovered —
  /// zone and counters from the verified snapshot, then the WAL tail queued
  /// for replay through the normal execution path (signing sessions re-run
  /// deterministically; peers that already finished answer re-sent shares
  /// with the final signature). Responses for replayed operations are
  /// suppressed — their clients were answered in the previous life. Call
  /// once, right after construction, before serving traffic. A subsequent
  /// start_recovery() then asks the peers only whether the disk is behind:
  /// peers at or below our cursor send a small "current" ack instead of a
  /// full snapshot, and t+1 such acks stand the recovery down without any
  /// state transfer.
  void restore_from_store(const store::RecoveredState& recovered);

  /// Proactive share refresh (§4.3): install a re-dealt share of the *same*
  /// RSA key (N, e unchanged; verification values v, v_i re-randomized). The
  /// new public key is kept alongside the old ones so signing sessions still
  /// in flight — which hold references into the previous key — stay valid.
  void install_zone_share(std::shared_ptr<const threshold::ThresholdPublicKey> pub,
                          threshold::KeyShare share);

  /// Every payload this replica delivered through atomic broadcast, as
  /// (sequence number -> SHA-256 of payload). The chaos harness compares
  /// these maps across replicas to check abcast agreement; entries skipped
  /// by snapshot recovery (fast_forward) are simply absent.
  const std::map<std::uint64_t, abcast::Digest>& delivery_log() const {
    return delivery_log_;
  }

  /// This replica's protocol-state fields of a ReplicaObservation (O(zone):
  /// only stats exports and chaos checks call it, never the read or update
  /// path). byzantine, zone_signed/zone_verifies and delivery_log are left
  /// to the caller.
  ReplicaObservation observe() const;

  unsigned id() const { return secret_.id; }
  const dns::AuthoritativeServer& server() const { return server_; }
  dns::AuthoritativeServer& server() { return server_; }
  const abcast::AtomicBroadcast& abcast() const { return *abcast_; }
  /// The registry this replica counts into (the caller's, or the private
  /// fallback created when Callbacks::metrics was null).
  obs::Registry& metrics() { return *metrics_; }
  const obs::Registry& metrics() const { return *metrics_; }

  std::uint64_t signatures_computed() const { return c_signatures_->value(); }

  /// The signing-session id of SIG task `index` of the `update`-th executed
  /// update, the same on every replica. The index gets 16 bits: an update
  /// fits one message of at most 64 KiB (under 5,500 RRs), and an RR costs
  /// at most three SIG tasks (its RRset, its NXT, its predecessor's NXT)
  /// plus one for the SOA, far below 65,536.
  static constexpr unsigned kSessionIndexBits = 16;
  static std::uint64_t session_id(std::uint64_t update, std::size_t index) {
    return update << kSessionIndexBits | index;
  }
  /// Bounds on the shares buffered for signing sessions this replica has not
  /// reached yet: sessions of at most the next kRetainWindow updates (a
  /// replica further behind moves to state transfer), the nearest
  /// kMaxBufferedSessions of them, kBufferedPerPeer × n messages each.
  static constexpr std::size_t kMaxBufferedSessions = 1024;
  static constexpr std::size_t kBufferedPerPeer = 4;
  /// Messages buffered for future signing sessions (tests and debugging).
  std::size_t buffered_signing_messages() const;

  /// Zone-generation counter: bumped (release) on the replica thread once
  /// per update batch that changes the zone — at its first change, before
  /// any answer or acknowledgment can reflect it — and at a recovery
  /// reinstall or share refresh. Frontend shards read it (acquire) to
  /// lazily invalidate packet-cache entries; it never decreases. Starts at
  /// 1 so generation 0 can mean "no replica attached" in frontend unit tests.
  const std::atomic<std::uint64_t>& zone_generation() const {
    return zone_generation_;
  }
  std::uint64_t zone_generation_value() const {
    return zone_generation_.load(std::memory_order_acquire);
  }
  /// The generation an answer sent now may be cached under; none while an
  /// update batch that changed the zone is still signing, since its answers
  /// may lack SIGs the batch has yet to install.
  std::optional<std::uint64_t> cache_generation() const {
    if (current_batch_ && current_batch_->dirty) return std::nullopt;
    return zone_generation_value();
  }

 private:
  /// A delivered update payload mid-execution; every update runs in one (a
  /// lone update as a batch of one). Entries run strictly in order, and the
  /// entry being signed keeps its SIG tasks here. The zone generation is
  /// bumped at the batch's first change; every update response and the
  /// commit notification wait for finish_batch(), so no client sees a
  /// NOERROR before its signatures are installed.
  struct UpdateBatch {
    std::vector<std::pair<ClientId, dns::Message>> entries;
    std::size_t next = 0;
    std::vector<dns::SigTask> tasks;  ///< of entries[next], while it is signed
    std::size_t next_task = 0;
    std::vector<std::pair<ClientId, dns::Message>> responses;
    bool dirty = false;  ///< the zone changed (and the generation was bumped)
  };

  void execute_next();
  void execute(const util::Bytes& payload);
  void handle_snapshot_request(unsigned from, util::BytesView body);
  void handle_snapshot(unsigned from, util::BytesView body);
  void handle_snapshot_current(unsigned from, util::BytesView body);
  void try_finish_recovery();
  void serve_snapshot_waiters();
  void stand_down_recovery(const char* why);
  store::ZoneState make_store_state() const;
  /// The one install path behind restore_from_store and recovery adoption:
  /// the zone the verifier stashed (or, without one, a parse of the wire),
  /// then the counters, the abcast cursor and a generation bump. False,
  /// changing nothing, when the zone does not parse.
  bool install_state(const store::ZoneState& state);
  void run_query(ClientId client, const dns::Message& request);
  /// Applies one update entry of the current batch; true when it finished
  /// synchronously, false while its signatures wait for peer shares.
  bool run_update(ClientId client, const dns::Message& request);
  /// Runs the current entry's SIG tasks from `next_task` on; true once all
  /// are installed and the entry's response is queued.
  bool sign_update();
  void start_signature(std::size_t index);
  void buffer_signing_message(std::uint64_t sid, util::BytesView body);
  void schedule_signing_resend(std::uint64_t gen, std::uint64_t sid,
                               unsigned attempts = 0);
  void respond(ClientId client, const dns::Message& response);
  void bump_zone_generation();
  void notify_zone_committed();
  void charge(threshold::CostEvent e) {
    if (cb_.charge) cb_.charge(e);
  }
  // Update batching (gateway side + execution side).
  void maybe_submit_updates();
  void continue_batch();
  void finish_batch();

  ReplicaConfig config_;
  abcast::NodeSecret secret_;
  std::shared_ptr<const threshold::ThresholdPublicKey> zone_key_;
  threshold::KeyShare zone_share_;
  dns::AuthoritativeServer server_;
  Callbacks cb_;
  util::Rng rng_;
  CorruptionMode corruption_;
  std::shared_ptr<const crypto::RsaPrivateKey> local_key_;

  std::unique_ptr<abcast::AtomicBroadcast> abcast_;
  std::deque<util::Bytes> exec_queue_;
  bool executing_ = false;
  // Gateway-side group commit: updates wait here while a batch round is in
  // flight, then ride out together as one payload. The in-flight flag
  // clears when the submitted payload's digest comes back through delivery.
  std::deque<std::pair<ClientId, util::Bytes>> update_queue_;
  bool batch_in_flight_ = false;
  std::optional<abcast::Digest> in_flight_digest_;
  // Execution-side state for a delivered update payload.
  std::optional<UpdateBatch> current_batch_;
  /// The session of the SIG task being signed; null between tasks. A
  /// finished session is replaced only after its on_message() returns.
  std::unique_ptr<threshold::SigningSession> signing_;
  /// Shares arriving for sessions this (slower) replica has not reached yet,
  /// within the bounds above.
  std::map<std::uint64_t, std::vector<util::Bytes>> pending_signing_;
  std::uint64_t last_finished_sid_ = 0;
  /// Assembled signatures of recently finished sessions, kept so a lagging
  /// peer re-sending shares for an old session gets the final signature back
  /// instead of silence (liveness across crashes and partitions).
  std::map<std::uint64_t, bn::BigInt> finished_sigs_;
  /// Generation counter for the per-session share-resend timer; bumping it
  /// invalidates timers armed for superseded sessions.
  std::uint64_t signing_timer_gen_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t update_counter_ = 0;
  std::map<std::uint64_t, abcast::Digest> delivery_log_;
  /// Superseded public keys from share refreshes, kept alive for a session
  /// in flight that still references them.
  std::vector<std::shared_ptr<const threshold::ThresholdPublicKey>> old_zone_keys_;

  std::atomic<std::uint64_t> zone_generation_{1};

  /// Private registry when Callbacks::metrics is null (the simulator runs
  /// many replicas per process; each needs its own counter namespace).
  std::unique_ptr<obs::Registry> own_metrics_;
  obs::Registry* metrics_ = nullptr;
  obs::Counter* c_reads_;
  obs::Counter* c_updates_;
  obs::Counter* c_signatures_;
  obs::Counter* c_recoveries_;
  obs::Counter* c_recovery_standdowns_;
  obs::Counter* c_update_batches_;
  obs::Histogram* h_update_batch_size_;

  /// The durable (or no-op) store behind Callbacks::store.
  std::unique_ptr<store::MemoryZoneStore> own_store_;
  store::ZoneStoreIf* store_ = nullptr;
  /// Boot replay: responses whose delivery number is at or below this were
  /// already sent in a previous life; re-executing must stay silent.
  std::uint64_t suppress_responses_below_ = 0;

  // kStaleReplay: first response recorded per question.
  std::map<std::string, util::Bytes> stale_cache_;

  // Recovery state.
  bool recovering_ = false;
  /// Snapshots peers sent, each decoded and verified once, on arrival.
  std::map<unsigned, store::ZoneState> recovery_candidates_;
  /// Peers that answered the snapshot request with "you are current"
  /// (their cursor <= ours) instead of a full snapshot.
  std::map<unsigned, std::uint64_t> recovery_current_acks_;
  /// Peers whose snapshot request arrived mid-operation; answered as soon
  /// as the execution pipeline drains (dropping it would leave the
  /// requester recovering for good under steady update traffic).
  std::set<unsigned> snapshot_waiters_;
};

}  // namespace sdns::core
