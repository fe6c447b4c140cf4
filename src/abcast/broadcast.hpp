// Optimistic asynchronous atomic broadcast.
//
// This is our SINTRA stand-in, modelled on the Kursawe-Shoup protocol the
// paper uses (§3.3): a *fast optimistic mode* in which the epoch's leader
// assigns sequence numbers, and a *fall-back mode* entered when the leader
// is apparently misbehaving, gated by randomized binary Byzantine agreement
// (bba.hpp) so the abandonment decision itself needs no timing assumptions.
//
// Optimistic path, per sequence number s in epoch e (leader = e mod n):
//   SUBMIT(p)        any node, to all: payload dissemination (digest d).
//   ORDER(e,s,d)     leader: binds s to d.
//   ECHO(e,s,d,sig)  all: signed vote. 2t+1 signed echoes = "prepared
//                    certificate" — at most one d per (e,s) can prepare.
//   COMMIT(e,s,d,sig) all, after preparing. 2t+1 signed commits = a
//                    transferable commit certificate; holders broadcast it
//                    as COMMITTED so every node converges.
//   Delivery strictly in sequence order once payloads are known
//   (GETPAYLOAD/PAYLOAD fills gaps).
//
// Retention: per-sequence state (slots, commit bindings, certificates,
// payload bodies, leader bookkeeping) is kept for the last kRetainWindow
// delivered sequence numbers only. Votes for older sequence numbers are
// dropped unverified; a peer that far behind catches up by state transfer.
// Only the delivered digests (at-most-once delivery) are kept for good.
//
// Fall-back: a node whose pending payload is not delivered within the
// complaint timeout broadcasts a signed COMPLAIN; t+1 complaints are joined,
// 2t+1 complaints start a binary-agreement instance on "abandon epoch e?".
// A 1-decision triggers the epoch change: every node sends a signed
// EPOCHCHANGE carrying its delivery watermark plus its prepared and commit
// certificates; the new leader bundles 2t+1 of them into NEWEPOCH. Receivers
// deterministically re-derive the bindings that may have committed (highest-
// epoch prepared certificate per sequence; gaps become no-ops), re-run the
// echo/commit phases for them in the new epoch, and the new leader orders
// the still-pending payloads afresh. A 0-decision doubles the timeout and
// re-arms the complaint round.
//
// Guarantees with at most t < n/3 Byzantine nodes (authenticated links):
//   Agreement: honest nodes deliver the same sequence of payloads.
//   Integrity: each payload is delivered at most once.
//   Validity:  a payload submitted by an honest node is eventually
//              delivered (liveness requires fair links; the randomized
//              fall-back removes the need for synchrony in agreement).
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>

#include "abcast/bba.hpp"
#include "obs/metrics.hpp"

namespace sdns::abcast {

using Digest = std::array<std::uint8_t, 32>;

class AtomicBroadcast {
 public:
  /// Delivered sequence numbers whose state is retained (see the header
  /// comment): late votes inside it land as usual, GETPAYLOAD is served for
  /// its deliveries, and state below it is freed as the cursor advances.
  static constexpr std::uint64_t kRetainWindow = 256;

  struct Callbacks {
    std::function<void(unsigned to, const util::Bytes&)> send;
    /// Total-order output, same sequence at every honest node.
    std::function<void(const util::Bytes& payload)> deliver;
    std::function<double()> now;
    std::function<void(double delay, std::function<void()>)> set_timer;
    /// Cost hook (messages, authenticators, common-coin crypto); may be
    /// empty.
    std::function<void(threshold::CostEvent)> charge;
    /// A commit landed a full kRetainWindow past the delivery cursor: the
    /// peers may have released what this node still needs below it, so the
    /// owner should start state transfer. Fires at most once per window of
    /// sequence numbers; may be empty.
    std::function<void()> fell_behind;
    /// Metrics sink (owned by the caller, must outlive the broadcast);
    /// null components count into a shared no-op sink.
    obs::Registry* metrics = nullptr;
  };

  struct Options {
    double complaint_timeout = 2.0;  ///< seconds; doubles per failed attempt
    /// Byzantine fault injection (chaos testing): when this node is the
    /// epoch's leader it binds each sequence number to the real digest for
    /// half of its peers and to a phantom digest (whose payload does not
    /// exist) for the other half.
    bool equivocate_as_leader = false;
  };

  AtomicBroadcast(std::shared_ptr<const GroupPublic> pub, NodeSecret secret,
                  Callbacks callbacks, Options options, util::Rng rng);

  /// a-broadcast a payload: disseminate and (eventually) deliver everywhere.
  void submit(util::Bytes payload);

  /// State-transfer support: advance the delivery cursor past sequence
  /// numbers whose effects the application obtained out of band (a zone
  /// snapshot). Deliveries below `next_deliver` are silently dropped.
  void fast_forward(std::uint64_t next_deliver);

  void on_message(unsigned from, util::BytesView msg);

  // Introspection for tests, benchmarks and the wrapper.
  unsigned epoch() const { return epoch_; }
  unsigned id() const { return secret_.id; }
  bool is_leader() const { return epoch_ % pub_->n == secret_.id; }
  std::uint64_t delivered_count() const { return next_deliver_; }
  /// Sequence numbers below this have had their state released.
  std::uint64_t retain_floor() const {
    return next_deliver_ > kRetainWindow ? next_deliver_ - kRetainWindow : 0;
  }
  /// Distinct sequence numbers holding slot, commit or certificate state.
  std::size_t retained_seqs() const;
  /// Payload bodies held: undelivered ones plus the window's deliveries.
  std::size_t retained_payloads() const { return payloads_.size(); }
  /// Whether a byte-identical payload has already come through total order
  /// at this node. Delivered digests are never re-ordered (note_payload
  /// drops them), so a submitter waiting on this digest would wait forever.
  bool already_delivered(const Digest& d) const {
    return delivered_.count(d) != 0;
  }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t epoch_changes() const { return epoch_change_count_; }
  unsigned attempt() const { return attempt_; }
  bool in_epoch_change() const { return in_epoch_change_; }
  bool has_complained() const { return complained_; }
  bool bba_active() const { return bbas_.count(bba_instance()) != 0; }

  /// Message-crafting helpers so tests can play a Byzantine leader.
  static util::Bytes encode_submit(util::BytesView payload);
  static util::Bytes encode_order(unsigned epoch, std::uint64_t seq, const Digest& d);
  static util::Bytes encode_echo(unsigned epoch, std::uint64_t seq, const Digest& d,
                                 const NodeSecret& signer);
  static util::Bytes echo_statement(unsigned epoch, std::uint64_t seq, const Digest& d);
  static Digest digest_of(util::BytesView payload);

 private:
  enum MsgType : std::uint8_t {
    kSubmit = 0xA1,
    kOrder = 0xA2,
    kEcho = 0xA3,
    kCommit = 0xA4,
    kCommitted = 0xA5,
    kGetPayload = 0xA6,
    kPayload = 0xA7,
    kComplain = 0xA8,
    kEpochChange = 0xA9,
    kNewEpoch = 0xAA,
  };

  struct Vote {
    util::Bytes sig;
  };
  struct Slot {
    std::optional<Digest> digest;  ///< binding ordered by the leader
    std::map<unsigned, std::pair<Digest, util::Bytes>> echoes;   // node -> (d, sig)
    std::map<unsigned, std::pair<Digest, util::Bytes>> commits;  // node -> (d, sig)
    bool echo_sent = false;
    bool commit_sent = false;
  };
  struct Cert {  ///< 2t+1 signatures over the same statement
    unsigned epoch = 0;
    std::uint64_t seq = 0;
    Digest digest{};
    std::vector<std::pair<unsigned, util::Bytes>> sigs;
  };

  // --- helpers ---
  void broadcast(const util::Bytes& msg);
  void charge(threshold::CostEvent e) {
    if (cb_.charge) cb_.charge(e);
  }
  unsigned leader_of(unsigned epoch) const { return epoch % pub_->n; }
  Slot& slot(unsigned epoch, std::uint64_t seq) { return slots_[{seq, epoch}]; }

  void handle_submit(unsigned from, util::Reader& r);
  void handle_order(unsigned from, util::Reader& r);
  void handle_echo(unsigned from, util::Reader& r);
  void handle_commit(unsigned from, util::Reader& r);
  void handle_committed(unsigned from, util::Reader& r);
  void handle_get_payload(unsigned from, util::Reader& r);
  void handle_payload(unsigned from, util::Reader& r);
  void handle_complain(unsigned from, util::Reader& r);
  void handle_epoch_change(unsigned from, util::BytesView whole, util::Reader& r);
  void handle_new_epoch(unsigned from, util::Reader& r);

  void note_payload(util::Bytes payload);
  void leader_order_pending();
  void maybe_echo(unsigned epoch, std::uint64_t seq);
  void check_prepared(unsigned epoch, std::uint64_t seq);
  void check_committed_quorum(unsigned epoch, std::uint64_t seq);
  /// `via_epoch_change` distinguishes commits recovered through the
  /// fall-back (epoch-change certificate replay) from optimistic fast-path
  /// commits — the split the paper's §5 measurements are about.
  void commit(std::uint64_t seq, const Digest& d, const Cert* cert_to_share,
              bool via_epoch_change = false);
  void try_deliver();
  /// Free per-sequence state below retain_floor(); never called while the
  /// deliver callback is running (it may hold a payload reference).
  void release_below_window();
  void arm_timer();
  void on_timer();
  void start_fallback_vote(bool my_input);
  void on_fallback_decision(std::uint64_t instance, bool abandon);
  void begin_epoch_change(unsigned new_epoch);
  util::Bytes build_epoch_change_body() const;
  void maybe_send_new_epoch();
  bool adopt_new_epoch(unsigned new_epoch,
                       const std::vector<util::Bytes>& change_messages);
  /// The epoch a complaint/abandonment vote currently targets: the active
  /// epoch, or — while waiting for a NEWEPOCH that may never come because
  /// the incoming leader is faulty — the pending one (escalation skips it).
  unsigned vote_epoch() const { return in_epoch_change_ ? pending_new_epoch_ : epoch_; }
  std::uint64_t bba_instance() const {
    return (static_cast<std::uint64_t>(vote_epoch()) << 20) | attempt_;
  }

  std::shared_ptr<const GroupPublic> pub_;
  NodeSecret secret_;
  Callbacks cb_;
  Options opt_;
  util::Rng rng_;
  ThresholdCoin coin_;

  unsigned epoch_ = 0;
  std::uint32_t attempt_ = 0;
  bool in_epoch_change_ = false;
  unsigned pending_new_epoch_ = 0;

  std::uint64_t next_deliver_ = 0;    ///< lowest undelivered sequence number
  std::uint64_t next_order_seq_ = 0;  ///< leader: next fresh sequence
  std::map<std::pair<std::uint64_t, unsigned>, Slot> slots_;  // (seq, epoch)
  std::map<std::uint64_t, Digest> committed_;          // seq -> digest
  std::map<std::uint64_t, Cert> commit_certs_;         // seq -> commit cert
  std::map<std::uint64_t, Cert> prepared_certs_;       // seq -> best prepared cert
  std::map<Digest, util::Bytes> payloads_;
  std::set<Digest> delivered_;
  std::map<Digest, double> pending_;                   // digest -> submit time
  std::set<Digest> ordered_;                           // leader bookkeeping
  std::set<Digest> requested_payloads_;
  std::uint64_t fell_behind_at_ = 0;  ///< seq that last fired fell_behind
  unsigned delivering_ = 0;           ///< deliver callbacks on the stack

  // Fall-back state.
  std::map<std::pair<unsigned, std::uint32_t>, std::map<unsigned, util::Bytes>>
      complaints_;  // (epoch, attempt) -> node -> sig
  bool complained_ = false;
  // Agreement sessions are kept for the node's lifetime: coin callbacks and
  // straggler messages may reference them long after a decision.
  std::map<std::uint64_t, std::unique_ptr<BinaryAgreement>> bbas_;
  std::map<unsigned, std::map<unsigned, util::Bytes>> epoch_change_msgs_;
  unsigned new_epoch_sent_for_ = 0;  // highest target we issued NEWEPOCH for
  double epoch_change_started_ = 0;
  bool timer_armed_ = false;
  std::uint64_t epoch_change_count_ = 0;

  // Counters resolved once at construction (see Callbacks::metrics).
  obs::Counter* c_deliver_;
  obs::Counter* c_commit_fast_;
  obs::Counter* c_commit_fallback_;
  obs::Counter* c_fallback_;
  obs::Counter* c_epoch_adopted_;
  obs::Counter* c_complaints_;
  obs::Counter* c_bba_rounds_;
  obs::Counter* c_coin_flips_;
};

}  // namespace sdns::abcast
