#include "abcast/bba.hpp"

#include "util/log.hpp"

namespace sdns::abcast {

using util::Bytes;
using util::BytesView;
using util::Reader;
using util::Writer;

namespace {
constexpr std::uint32_t kMaxRounds = 256;  // safety valve; expected ~2-3
}

BinaryAgreement::BinaryAgreement(std::shared_ptr<const GroupPublic> pub, unsigned my_id,
                                 std::uint64_t instance, ThresholdCoin& coin,
                                 Callbacks callbacks)
    : pub_(std::move(pub)),
      my_id_(my_id),
      instance_(instance),
      coin_(coin),
      cb_(std::move(callbacks)) {}

bool BinaryAgreement::is_bba_message(BytesView msg) {
  return !msg.empty() && (msg[0] == kBval || msg[0] == kAux || msg[0] == kDecide);
}

std::optional<std::uint64_t> BinaryAgreement::peek_instance(BytesView msg) {
  if (msg.size() < 9) return std::nullopt;
  Reader r(msg);
  r.u8();
  return r.u64();
}

Bytes BinaryAgreement::frame(MsgType type, std::uint32_t round, bool bit) const {
  Writer w;
  w.u8(type);
  w.u64(instance_);
  w.u32(round);
  w.u8(bit ? 1 : 0);
  return std::move(w).take();
}

void BinaryAgreement::start(bool input) {
  if (started_) return;
  started_ = true;
  est_ = input;
  round_ = 0;
  broadcast_bval(0, est_);
}

void BinaryAgreement::broadcast_bval(std::uint32_t round, bool bit) {
  Round& r = rounds_[round];
  if (r.bval_sent[bit ? 1 : 0]) return;
  r.bval_sent[bit ? 1 : 0] = true;
  r.bval_from[bit ? 1 : 0].insert(my_id_);
  if (cb_.send_to_all) cb_.send_to_all(frame(kBval, round, bit));
  try_finish_round(round);
}

void BinaryAgreement::on_message(unsigned from, BytesView msg) {
  if (halted_ || from >= pub_->n) return;
  try {
    Reader reader(msg);
    const auto type = static_cast<MsgType>(reader.u8());
    const std::uint64_t instance = reader.u64();
    if (instance != instance_) return;
    const std::uint32_t round = reader.u32();
    const bool bit = reader.u8() != 0;
    reader.expect_done();
    if (cb_.charge) cb_.charge(threshold::CostEvent::kMessage);
    if (round > kMaxRounds) return;

    switch (type) {
      case kBval: {
        Round& r = rounds_[round];
        if (!r.bval_from[bit ? 1 : 0].insert(from).second) return;
        if (r.bval_from[bit ? 1 : 0].size() >= static_cast<std::size_t>(pub_->t) + 1 &&
            started_) {
          broadcast_bval(round, bit);  // amplification
        }
        // Count after amplification: our own broadcast adds us to the sender
        // set, and with exactly n-t live nodes that self-vote is what closes
        // the 2t+1 quorum — a node that proposed the other bit would
        // otherwise withhold its AUX forever and wedge the round.
        const std::size_t count = r.bval_from[bit ? 1 : 0].size();
        if (count >= pub_->quorum() && !r.bin_values[bit ? 1 : 0]) {
          r.bin_values[bit ? 1 : 0] = true;
          if (!r.aux_sent && started_) {
            r.aux_sent = true;
            r.aux[my_id_] = bit;
            if (cb_.send_to_all) cb_.send_to_all(frame(kAux, round, bit));
          }
        }
        try_finish_round(round);
        break;
      }
      case kAux: {
        Round& r = rounds_[round];
        r.aux.emplace(from, bit);  // first aux from a sender counts
        try_finish_round(round);
        break;
      }
      case kDecide: {
        if (!decide_from_[bit ? 1 : 0].insert(from).second) return;
        if (decide_from_[bit ? 1 : 0].size() >= static_cast<std::size_t>(pub_->t) + 1) {
          decide(bit);  // t+1 senders include an honest decider
        }
        const std::size_t total =
            decide_from_[0].size() + decide_from_[1].size() + (decide_sent_ ? 1 : 0);
        if (decision_ && total >= pub_->quorum()) halted_ = true;
        break;
      }
      default:
        break;
    }
  } catch (const util::ParseError&) {
    SDNS_LOG_DEBUG("bba ", instance_, ": malformed message dropped");
  }
}

void BinaryAgreement::try_finish_round(std::uint32_t round) {
  if (!started_ || halted_ || round != round_) return;
  Round& r = rounds_[round];
  if (!r.aux_sent) {
    // Our aux goes out as soon as any value enters bin_values (handled in
    // the kBval branch); nothing to do before that.
    return;
  }
  // Collect aux messages whose value is already in bin_values.
  std::set<unsigned> senders;
  bool values[2] = {false, false};
  for (const auto& [from, bit] : r.aux) {
    if (r.bin_values[bit ? 1 : 0]) {
      senders.insert(from);
      values[bit ? 1 : 0] = true;
    }
  }
  if (senders.size() < pub_->quorum()) return;
  if (r.coin_requested) return;
  r.coin_requested = true;
  const bool v0 = values[0];
  const bool v1 = values[1];
  coin_.request(instance_, round, [this, round, v0, v1](bool c) {
    if (halted_ || round != round_) return;
    Round& rr = rounds_[round];
    rr.coin = c;
    if (v0 != v1) {
      const bool b = v1;  // the single value present
      est_ = b;
      if (b == c && !decision_) {
        decide(b);
      }
    } else {
      est_ = c;
    }
    advance(round + 1);
  });
}

void BinaryAgreement::rebroadcast() {
  if (!started_ || halted_ || !cb_.send_to_all) return;
  if (decide_sent_) {
    cb_.send_to_all(frame(kDecide, round_, *decision_));
    return;
  }
  Round& r = rounds_[round_];
  for (int b = 0; b < 2; ++b) {
    if (r.bval_sent[b]) cb_.send_to_all(frame(kBval, round_, b != 0));
  }
  auto own_aux = r.aux.find(my_id_);
  if (r.aux_sent && own_aux != r.aux.end()) {
    cb_.send_to_all(frame(kAux, round_, own_aux->second));
  }
  if (r.coin_requested && !r.coin) coin_.resend(instance_, round_);
}

void BinaryAgreement::advance(std::uint32_t round) {
  if (halted_) return;
  if (round > kMaxRounds) {
    SDNS_LOG_ERROR("bba ", instance_, ": round cap exceeded");
    return;
  }
  round_ = round;
  broadcast_bval(round, est_);
  // Late-arriving BVAL/AUX for this round may already satisfy the quorums.
  Round& r = rounds_[round];
  for (int b = 0; b < 2; ++b) {
    if (r.bval_from[b].size() >= static_cast<std::size_t>(pub_->t) + 1) {
      broadcast_bval(round, b != 0);
    }
    if (r.bval_from[b].size() >= pub_->quorum() && !r.bin_values[b]) {
      r.bin_values[b] = true;
      if (!r.aux_sent) {
        r.aux_sent = true;
        r.aux[my_id_] = b != 0;
        if (cb_.send_to_all) cb_.send_to_all(frame(kAux, round, b != 0));
      }
    }
  }
  try_finish_round(round);
}

void BinaryAgreement::decide(bool value) {
  if (decision_) return;
  decision_ = value;
  if (!decide_sent_) {
    decide_sent_ = true;
    if (cb_.send_to_all) cb_.send_to_all(frame(kDecide, round_, value));
  }
  if (cb_.on_decide) cb_.on_decide(value);
}

}  // namespace sdns::abcast
