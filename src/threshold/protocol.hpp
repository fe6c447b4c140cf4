// The three threshold signature protocols of the paper.
//
//  - BASIC    (§3.3): every share carries a correctness proof; a server
//    verifies incoming shares and assembles once it holds t+1 valid ones.
//  - OPTPROOF (§3.5): shares are sent without proofs; the server assembles
//    the first t+1 and checks the *final* signature (cheap). Only on failure
//    does it ask everyone to resend shares with proofs, falling back to
//    BASIC behaviour while concurrently accepting a valid final signature
//    from any peer.
//  - OPTTE    (§3.5): no proofs ever; on assembly failure the server keeps
//    collecting shares (up to 2t+1) and tries every (t+1)-subset until one
//    yields a valid signature. Exponential in n, fastest for practical n.
//
// A SigningSession is one server's participation in signing one message.
// It is transport-agnostic: the owner delivers incoming protocol messages
// via on_message() and provides callbacks for sending and for accounting
// the cost of cryptographic operations (the discrete-event simulator charges
// these to virtual CPU time; direct callers may ignore them).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "threshold/context.hpp"
#include "threshold/shoup.hpp"

namespace sdns::threshold {

enum class SigProtocol : std::uint8_t { kBasic = 0, kOptProof = 1, kOptTE = 2 };

const char* to_string(SigProtocol p);

/// Operations reported through the one cost hook every layer takes
/// (signing sessions, the common coin, atomic broadcast, the replica), so
/// callers can account CPU time (see sim::CostModel and the paper's
/// Table 3).
enum class CostEvent : std::uint8_t {
  kShareValue,   ///< computing x^{2*Delta*s_i}
  kProofGen,     ///< generating the correctness proof
  kProofVerify,  ///< verifying one share's proof
  kAssemble,     ///< Lagrange combination of t+1 shares
  kFinalVerify,  ///< checking y^e == x
  kMessage,      ///< processing one protocol message
  kAuthSign,     ///< authenticating an outgoing certificate vote
  kAuthVerify,   ///< checking one authenticator
  kDnsQuery,     ///< answering one DNS query
  kDnsUpdate,    ///< one zone mutation, excluding signatures
  kLocalSign,    ///< one signature with a local (non-threshold) key
};
inline constexpr std::size_t kCostEventCount =
    static_cast<std::size_t>(CostEvent::kLocalSign) + 1;

struct SessionCallbacks {
  /// Send a protocol message point-to-point to every other server.
  std::function<void(const util::Bytes&)> send_to_all;
  /// Invoked exactly once when the session completes with a valid signature.
  std::function<void(const bn::BigInt& y)> on_complete;
  /// Cost accounting hook; may be empty.
  std::function<void(CostEvent)> charge;
  /// Metrics sink (owned by the caller, must outlive the session); null
  /// sessions count into a shared no-op sink.
  obs::Registry* metrics = nullptr;
  /// Clock for the signing-latency histogram; empty disables it.
  std::function<double()> now;
};

/// How a corrupted server misbehaves inside the signing protocol. The paper's
/// testbed corruption is kFlipShare: "inverts all the bits in its signature
/// share before sending it to the others."  kMute withholds the share
/// entirely; kGarbage replaces it with a uniformly random residue (a share
/// that is not even a corruption of the correct one).
enum class ShareCorruption : std::uint8_t {
  kNone = 0,
  kFlipShare = 1,
  kMute = 2,
  kGarbage = 3,
};

class SigningSession {
 public:
  /// `x` is the already-encoded element to sign (see hash_to_element).
  SigningSession(const ThresholdPublicKey& pk, const KeyShare& share, SigProtocol protocol,
                 std::uint64_t session_id, bn::BigInt x, SessionCallbacks callbacks,
                 util::Rng rng, ShareCorruption corruption = ShareCorruption::kNone);

  /// Generate and broadcast this server's share. Must be called once.
  void start();

  /// Deliver an incoming protocol message (payload produced by a peer
  /// session with the same session id). Malformed messages are ignored.
  void on_message(util::BytesView msg);

  bool done() const { return signature_.has_value(); }
  /// Valid once done(): y with y^e = x (a standard RSA signature value).
  const bn::BigInt& signature() const { return *signature_; }

  std::uint64_t session_id() const { return sid_; }

  /// Re-broadcast this server's current contribution: the final signature if
  /// the session completed, otherwise the share already sent by start().
  /// Makes signing sessions live across message loss (crashed/partitioned
  /// peers miss the one-shot share broadcast); owners call this from a
  /// periodic timer. No-op for muted (corrupt) servers.
  void resend();

  /// Extract the session id from an encoded protocol message so the owner
  /// can route it; returns nullopt on malformed input.
  static std::optional<std::uint64_t> peek_session_id(util::BytesView msg);

  /// True when `msg` carries a signature share (a peer still working on the
  /// session). Owners answering finished sessions must reply only to these —
  /// replying to a kFinalSig would let two finished peers echo each other's
  /// answers forever.
  static bool is_share_message(util::BytesView msg);

  /// Encode a final-signature message for `sid`, as complete() broadcasts.
  /// Lets a server that already finished session `sid` answer a lagging
  /// peer's re-sent share with the assembled signature.
  static util::Bytes encode_final(std::uint64_t sid, const bn::BigInt& y);

 private:
  enum MsgType : std::uint8_t { kShare = 1, kProofRequest = 2, kFinalSig = 3 };

  void broadcast_share(bool with_proof);
  void handle_share(SignatureShare share);
  /// BASIC (and OPTPROOF's fallback): verify a proof-carrying share once.
  void handle_proof_share(SignatureShare share);
  void handle_proof_request();
  void handle_final(const bn::BigInt& y);
  void try_assemble_optimistic();
  void try_assemble_subsets();
  void check_basic_progress();
  void complete(bn::BigInt y);
  SignatureShare make_own_share(bool with_proof);
  util::Bytes frame(MsgType type, util::BytesView payload) const;

  const ThresholdPublicKey& pk_;
  // Shared per-key crypto context (Montgomery state, fixed-base tables); all
  // of this session's share/assemble/verify calls go through it.
  std::shared_ptr<const CryptoContext> ctx_;
  KeyShare share_;
  SigProtocol protocol_;
  std::uint64_t sid_;
  bn::BigInt x_;
  SessionCallbacks cb_;
  util::Rng rng_;
  ShareCorruption corruption_;

  bool started_ = false;
  bool proof_mode_ = false;      // OptProof: fallen back to proofs
  bool proof_requested_ = false; // we already answered a proof request
  std::optional<bn::BigInt> signature_;
  util::Bytes own_share_frame_;  // last share broadcast, for resend()

  // Shares collected without proof verification (OptProof fast path, OptTE).
  std::map<unsigned, SignatureShare> plain_shares_;
  // Indices of *received* shares in arrival order (own share excluded);
  // drives the optimistic first assembly per the paper's §3.5 wording.
  std::vector<unsigned> arrival_order_;
  // Shares whose proofs verified (BASIC / OptProof fallback). Own share is
  // trusted without a proof check.
  std::map<unsigned, SignatureShare> valid_shares_;
  std::set<unsigned> rejected_indices_;
  // OptTE: subsets already tried, as sorted index vectors.
  std::set<std::vector<unsigned>> tried_subsets_;
  bool optimistic_attempted_ = false;

  // Counters resolved once at construction (see SessionCallbacks::metrics).
  obs::Counter* c_verify_ok_;
  obs::Counter* c_verify_fail_;
  obs::Counter* c_opt_hit_;
  obs::Counter* c_opt_miss_;
  obs::Histogram* h_sign_us_;
  double started_at_ = 0.0;
};

}  // namespace sdns::threshold
