#include "threshold/protocol.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace sdns::threshold {

using bn::BigInt;
using util::Bytes;
using util::BytesView;
using util::Reader;
using util::Writer;

const char* to_string(SigProtocol p) {
  switch (p) {
    case SigProtocol::kBasic: return "BASIC";
    case SigProtocol::kOptProof: return "OPTPROOF";
    case SigProtocol::kOptTE: return "OPTTE";
  }
  return "?";
}

SigningSession::SigningSession(const ThresholdPublicKey& pk, const KeyShare& share,
                               SigProtocol protocol, std::uint64_t session_id, BigInt x,
                               SessionCallbacks callbacks, util::Rng rng,
                               ShareCorruption corruption)
    : pk_(pk),
      ctx_(CryptoContext::get(pk)),
      share_(share),
      protocol_(protocol),
      sid_(session_id),
      x_(std::move(x)),
      cb_(std::move(callbacks)),
      rng_(rng),
      corruption_(corruption) {
  obs::Registry* m = cb_.metrics;
  c_verify_ok_ = m ? &m->counter("threshold.share.verify_ok") : &obs::noop_counter();
  c_verify_fail_ =
      m ? &m->counter("threshold.share.verify_fail") : &obs::noop_counter();
  c_opt_hit_ = m ? &m->counter("threshold.optimistic.hit") : &obs::noop_counter();
  c_opt_miss_ = m ? &m->counter("threshold.optimistic.miss") : &obs::noop_counter();
  h_sign_us_ = m ? &m->histogram("threshold.sign_us") : &obs::noop_histogram();
}

Bytes SigningSession::frame(MsgType type, BytesView payload) const {
  Writer w;
  w.u64(sid_);
  w.u8(type);
  w.raw(payload);
  return std::move(w).take();
}

std::optional<std::uint64_t> SigningSession::peek_session_id(BytesView msg) {
  if (msg.size() < 9) return std::nullopt;
  Reader r(msg);
  return r.u64();
}

bool SigningSession::is_share_message(BytesView msg) {
  return msg.size() >= 9 && msg[8] == kShare;
}

SignatureShare SigningSession::make_own_share(bool with_proof) {
  if (cb_.charge) {
    cb_.charge(CryptoOp::kShareValue);
    if (with_proof) cb_.charge(CryptoOp::kProofGen);
  }
  SignatureShare s = generate_share(*ctx_, share_, x_, with_proof, rng_);
  if (corruption_ == ShareCorruption::kFlipShare) {
    // The paper's simulated corruption: invert every bit of the share value.
    Bytes b = s.xi.to_bytes_be(pk_.modulus_bytes());
    for (auto& byte : b) byte = static_cast<std::uint8_t>(~byte);
    s.xi = bn::mod_floor(BigInt::from_bytes_be(b), pk_.N);
    if (s.xi.is_zero()) s.xi = BigInt(1);
  } else if (corruption_ == ShareCorruption::kGarbage) {
    s.xi = bn::mod_floor(BigInt::from_bytes_be(rng_.bytes(pk_.modulus_bytes())), pk_.N);
    if (s.xi.is_zero()) s.xi = BigInt(1);
  }
  return s;
}

void SigningSession::resend() {
  if (!started_ || corruption_ == ShareCorruption::kMute || !cb_.send_to_all) return;
  if (done()) {
    if (corruption_ == ShareCorruption::kNone) {
      cb_.send_to_all(frame(kFinalSig, signature_->to_bytes_be()));
    }
    return;
  }
  if (!own_share_frame_.empty()) cb_.send_to_all(own_share_frame_);
}

Bytes SigningSession::encode_final(std::uint64_t sid, const BigInt& y) {
  Writer w;
  w.u64(sid);
  w.u8(kFinalSig);
  w.raw(y.to_bytes_be());
  return std::move(w).take();
}

void SigningSession::start() {
  started_ = true;
  started_at_ = cb_.now ? cb_.now() : 0.0;
  const bool with_proof = protocol_ == SigProtocol::kBasic;
  SignatureShare own = make_own_share(with_proof);
  if (corruption_ != ShareCorruption::kMute && cb_.send_to_all) {
    own_share_frame_ = frame(kShare, own.encode());
    cb_.send_to_all(own_share_frame_);
  }
  if (corruption_ == ShareCorruption::kNone) {
    // An honest server trusts its own (uncorrupted) share.
    valid_shares_.emplace(own.index, own);
    plain_shares_.emplace(own.index, std::move(own));
    if (protocol_ == SigProtocol::kBasic) {
      check_basic_progress();
    } else {
      try_assemble_optimistic();
      if (protocol_ == SigProtocol::kOptTE) try_assemble_subsets();
    }
  }
}

void SigningSession::on_message(BytesView msg) {
  if (!started_ || done()) return;
  try {
    Reader r(msg);
    const std::uint64_t sid = r.u64();
    if (sid != sid_) return;
    const auto type = static_cast<MsgType>(r.u8());
    const Bytes payload(msg.begin() + static_cast<std::ptrdiff_t>(r.pos()), msg.end());
    switch (type) {
      case kShare:
        handle_share(SignatureShare::decode(payload));
        break;
      case kProofRequest:
        handle_proof_request();
        break;
      case kFinalSig:
        handle_final(BigInt::from_bytes_be(payload));
        break;
      default:
        break;
    }
  } catch (const util::ParseError&) {
    SDNS_LOG_DEBUG("signing session ", sid_, ": dropping malformed message");
  }
}

void SigningSession::handle_share(SignatureShare share) {
  if (share.index == share_.index) return;  // ignore echoes of ourselves
  if (share.index < 1 || share.index > pk_.n) return;
  switch (protocol_) {
    case SigProtocol::kBasic:
      handle_proof_share(std::move(share));
      break;
    case SigProtocol::kOptProof:
      if (proof_mode_) {
        // Fallback: behave like BASIC for proof-carrying shares.
        handle_proof_share(std::move(share));
      } else {
        if (plain_shares_.count(share.index)) return;
        arrival_order_.push_back(share.index);
        plain_shares_.emplace(share.index, std::move(share));
        try_assemble_optimistic();
      }
      break;
    case SigProtocol::kOptTE:
      if (plain_shares_.count(share.index)) return;
      // Collect at most 2t+1 shares (own + 2t others suffice: at most t bad).
      if (plain_shares_.size() >= 2 * static_cast<std::size_t>(pk_.t) + 1) return;
      plain_shares_.emplace(share.index, std::move(share));
      try_assemble_subsets();
      break;
  }
}

void SigningSession::handle_proof_share(SignatureShare share) {
  if (valid_shares_.count(share.index) || rejected_indices_.count(share.index)) return;
  if (!share.has_proof) return;
  if (cb_.charge) cb_.charge(CryptoOp::kProofVerify);
  if (verify_share(*ctx_, x_, share)) {
    c_verify_ok_->inc();
    valid_shares_.emplace(share.index, std::move(share));
    check_basic_progress();
  } else {
    c_verify_fail_->inc();
    rejected_indices_.insert(share.index);
  }
}

void SigningSession::handle_proof_request() {
  if (protocol_ != SigProtocol::kOptProof) return;
  proof_mode_ = true;
  if (proof_requested_) return;
  proof_requested_ = true;
  SignatureShare own = make_own_share(/*with_proof=*/true);
  if (corruption_ != ShareCorruption::kMute && cb_.send_to_all) {
    own_share_frame_ = frame(kShare, own.encode());
    cb_.send_to_all(own_share_frame_);
  }
  if (corruption_ == ShareCorruption::kNone) {
    valid_shares_.insert_or_assign(own.index, std::move(own));
    check_basic_progress();
  }
}

void SigningSession::handle_final(const BigInt& y) {
  if (cb_.charge) cb_.charge(CryptoOp::kFinalVerify);
  if (verify_signature(*ctx_, x_, y)) complete(y);
}

void SigningSession::try_assemble_optimistic() {
  if (done() || optimistic_attempted_) return;
  const std::size_t need = static_cast<std::size_t>(pk_.t) + 1;
  // Paper §3.5: "The server then receives t+1 shares without verifying
  // their correctness, assembles them to a putative signature" — the first
  // t+1 *received* shares, in arrival order (arrival_order_), not counting
  // our own. (With a single-server group the own share is all there is.)
  std::vector<SignatureShare> subset;
  if (pk_.n == 1) {
    for (const auto& [idx, s] : plain_shares_) subset.push_back(s);
  } else {
    for (unsigned idx : arrival_order_) {
      subset.push_back(plain_shares_.at(idx));
      if (subset.size() == need) break;
    }
  }
  if (subset.size() < need) return;
  optimistic_attempted_ = true;
  if (cb_.charge) {
    cb_.charge(CryptoOp::kAssemble);
    cb_.charge(CryptoOp::kFinalVerify);
  }
  auto y = assemble(*ctx_, x_, subset);
  if (y && verify_signature(*ctx_, x_, *y)) {
    c_opt_hit_->inc();
    if (corruption_ == ShareCorruption::kNone && cb_.send_to_all) {
      cb_.send_to_all(frame(kFinalSig, y->to_bytes_be()));
    }
    complete(std::move(*y));
    return;
  }
  // Optimism failed: someone sent a bad share. Ask for proofs (OptProof).
  c_opt_miss_->inc();
  SDNS_LOG_DEBUG("signing session ", sid_, ": optimistic assembly failed, requesting proofs");
  proof_mode_ = true;
  if (cb_.send_to_all) cb_.send_to_all(frame(kProofRequest, {}));
  handle_proof_request();
}

void SigningSession::try_assemble_subsets() {
  if (done()) return;
  const std::size_t need = static_cast<std::size_t>(pk_.t) + 1;
  if (plain_shares_.size() < need) return;
  std::vector<unsigned> indices;
  indices.reserve(plain_shares_.size());
  for (const auto& [idx, s] : plain_shares_) indices.push_back(idx);
  // Enumerate (t+1)-subsets of the collected shares; skip ones already tried.
  std::vector<bool> select(indices.size(), false);
  std::fill(select.begin(), select.begin() + static_cast<std::ptrdiff_t>(need), true);
  do {
    std::vector<unsigned> subset_idx;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      if (select[i]) subset_idx.push_back(indices[i]);
    }
    if (!tried_subsets_.insert(subset_idx).second) continue;
    std::vector<SignatureShare> subset;
    for (unsigned idx : subset_idx) subset.push_back(plain_shares_.at(idx));
    if (cb_.charge) {
      cb_.charge(CryptoOp::kAssemble);
      cb_.charge(CryptoOp::kFinalVerify);
    }
    auto y = assemble(*ctx_, x_, subset);
    if (y && verify_signature(*ctx_, x_, *y)) {
      if (corruption_ == ShareCorruption::kNone && cb_.send_to_all) {
        cb_.send_to_all(frame(kFinalSig, y->to_bytes_be()));
      }
      complete(std::move(*y));
      return;
    }
  } while (std::prev_permutation(select.begin(), select.end()));
}

void SigningSession::check_basic_progress() {
  if (done()) return;
  const std::size_t need = static_cast<std::size_t>(pk_.t) + 1;
  if (valid_shares_.size() < need) return;
  std::vector<SignatureShare> subset;
  for (const auto& [idx, s] : valid_shares_) {
    subset.push_back(s);
    if (subset.size() == need) break;
  }
  if (cb_.charge) {
    cb_.charge(CryptoOp::kAssemble);
    cb_.charge(CryptoOp::kFinalVerify);
  }
  auto y = assemble(*ctx_, x_, subset);
  if (y && verify_signature(*ctx_, x_, *y)) {
    if ((protocol_ == SigProtocol::kOptProof || protocol_ == SigProtocol::kBasic) &&
        corruption_ == ShareCorruption::kNone && cb_.send_to_all) {
      // Helps peers that ran out of honest resenders (paper §3.5, OptProof).
      cb_.send_to_all(frame(kFinalSig, y->to_bytes_be()));
    }
    complete(std::move(*y));
  } else {
    // Should be impossible with verified proofs; drop the oldest share so we
    // cannot livelock if it ever happens.
    SDNS_LOG_WARN("signing session ", sid_, ": assembly of proof-verified shares failed");
    if (!valid_shares_.empty() &&
        valid_shares_.begin()->second.index != share_.index) {
      valid_shares_.erase(valid_shares_.begin());
    }
  }
}

void SigningSession::complete(BigInt y) {
  if (done()) return;
  signature_ = std::move(y);
  if (cb_.now) h_sign_us_->observe((cb_.now() - started_at_) * 1e6);
  if (cb_.on_complete) cb_.on_complete(*signature_);
}

}  // namespace sdns::threshold
