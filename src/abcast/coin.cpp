#include "abcast/coin.hpp"

#include "crypto/sha256.hpp"
#include "util/log.hpp"

namespace sdns::abcast {

using util::Bytes;
using util::BytesView;
using util::Reader;
using util::Writer;

namespace {
constexpr std::uint8_t kCoinTag = 0xC0;
}

ThresholdCoin::ThresholdCoin(std::shared_ptr<const GroupPublic> pub, NodeSecret secret,
                             Callbacks callbacks, util::Rng rng)
    : pub_(std::move(pub)), ctx_(threshold::CryptoContext::get(pub_->coin_key)),
      secret_(std::move(secret)), cb_(std::move(callbacks)), rng_(rng) {}

bn::BigInt ThresholdCoin::coin_element(std::uint64_t instance, std::uint32_t round) const {
  Writer w;
  w.str("coin");
  w.u64(instance);
  w.u32(round);
  return threshold::hash_to_element(pub_->coin_key, w.bytes());
}

bool ThresholdCoin::is_coin_message(BytesView msg) {
  return !msg.empty() && msg[0] == kCoinTag;
}

void ThresholdCoin::request(std::uint64_t instance, std::uint32_t round,
                            std::function<void(bool)> done) {
  Slot& slot = slots_[{instance, round}];
  if (slot.value) {
    done(*slot.value);
    return;
  }
  slot.waiters.push_back(std::move(done));
  release_share(instance, round, slot);
  try_assemble(instance, round, slot);
}

void ThresholdCoin::release_share(std::uint64_t instance, std::uint32_t round, Slot& slot) {
  if (slot.released) return;
  slot.released = true;
  const bn::BigInt x = coin_element(instance, round);
  if (cb_.charge) {
    cb_.charge(threshold::CostEvent::kShareValue);
    cb_.charge(threshold::CostEvent::kProofGen);
  }
  auto share = threshold::generate_share(*ctx_, secret_.coin_share, x,
                                         /*with_proof=*/true, rng_);
  slot.shares.emplace(share.index, share);
  Writer w;
  w.u8(kCoinTag);
  w.u64(instance);
  w.u32(round);
  w.lp32(share.encode());
  slot.share_frame = std::move(w).take();
  if (cb_.send_to_all) cb_.send_to_all(slot.share_frame);
}

void ThresholdCoin::resend(std::uint64_t instance, std::uint32_t round) {
  auto it = slots_.find({instance, round});
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.released || slot.value || slot.share_frame.empty()) return;
  if (cb_.send_to_all) cb_.send_to_all(slot.share_frame);
}

void ThresholdCoin::on_message(BytesView msg) {
  try {
    Reader r(msg);
    if (r.u8() != kCoinTag) return;
    const std::uint64_t instance = r.u64();
    const std::uint32_t round = r.u32();
    auto share = threshold::SignatureShare::decode(r.lp32());
    r.expect_done();
    Slot& slot = slots_[{instance, round}];
    if (slot.value || slot.shares.count(share.index)) return;
    const bn::BigInt x = coin_element(instance, round);
    if (cb_.charge) cb_.charge(threshold::CostEvent::kProofVerify);
    if (!threshold::verify_share(*ctx_, x, share)) {
      SDNS_LOG_DEBUG("coin: invalid share from index ", share.index);
      return;
    }
    slot.shares.emplace(share.index, std::move(share));
    // A share from a peer implies the coin is wanted: release ours so the
    // group reaches t+1 even if we have not requested this coin yet.
    release_share(instance, round, slot);
    try_assemble(instance, round, slot);
  } catch (const util::ParseError&) {
    SDNS_LOG_DEBUG("coin: malformed message dropped");
  }
}

void ThresholdCoin::try_assemble(std::uint64_t instance, std::uint32_t round, Slot& slot) {
  if (slot.value) return;
  const std::size_t need = static_cast<std::size_t>(pub_->coin_key.t) + 1;
  if (slot.shares.size() < need) return;
  std::vector<threshold::SignatureShare> subset;
  for (const auto& [idx, s] : slot.shares) {
    subset.push_back(s);
    if (subset.size() == need) break;
  }
  const bn::BigInt x = coin_element(instance, round);
  if (cb_.charge) {
    cb_.charge(threshold::CostEvent::kAssemble);
    cb_.charge(threshold::CostEvent::kFinalVerify);
  }
  auto y = threshold::assemble(*ctx_, x, subset);
  if (!y || !threshold::verify_signature(*ctx_, x, *y)) {
    SDNS_LOG_WARN("coin: assembly failed despite verified shares");
    return;
  }
  const Bytes digest = crypto::Sha256::digest(y->to_bytes_be());
  slot.value = (digest.back() & 1) != 0;
  if (cb_.on_flip) cb_.on_flip();
  auto waiters = std::move(slot.waiters);
  slot.waiters.clear();
  for (auto& w : waiters) w(*slot.value);
}

}  // namespace sdns::abcast
