// Common coin from threshold RSA (the Cachin-Kursawe-Shoup construction).
//
// The coin for (instance, round) is derived from the unique RSA threshold
// signature on the string "coin|instance|round": each node releases its
// signature share (with correctness proof); t+1 valid shares assemble the
// signature, whose hash's low bit is the coin value.  Because the signature
// is *unique*, every node obtains the same bit, and because t shares reveal
// nothing, the adversary cannot predict the coin before honest nodes release
// their shares — exactly the property the randomized agreement needs.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "abcast/group.hpp"
#include "threshold/protocol.hpp"

namespace sdns::abcast {

class ThresholdCoin {
 public:
  struct Callbacks {
    /// Send a coin message to every other node.
    std::function<void(const util::Bytes&)> send_to_all;
    /// Cost hook (proof generation/verification); may be empty.
    std::function<void(threshold::CostEvent)> charge;
    /// Fired once per resolved coin (a slot's value assembled); may be
    /// empty. The observability layer counts flips through this.
    std::function<void()> on_flip;
  };

  ThresholdCoin(std::shared_ptr<const GroupPublic> pub, NodeSecret secret,
                Callbacks callbacks, util::Rng rng);

  /// Request the coin for (instance, round). `done` fires exactly once, as
  /// soon as t+1 valid shares are known (possibly synchronously if cached).
  void request(std::uint64_t instance, std::uint32_t round,
               std::function<void(bool)> done);

  /// Feed a coin protocol message from another node.
  void on_message(util::BytesView msg);

  /// Re-broadcast our share for an unresolved (instance, round): the one-shot
  /// release in request() can be lost to crashed or partitioned peers, and
  /// without it the group may sit below the t+1 assembly threshold forever.
  /// No-op if the share was never released or the coin already resolved.
  void resend(std::uint64_t instance, std::uint32_t round);

  /// True if `msg` is a coin message (dispatch helper for the owner).
  static bool is_coin_message(util::BytesView msg);

 private:
  struct Slot {
    bool released = false;
    util::Bytes share_frame;  ///< our encoded share message, for resend()
    std::map<unsigned, threshold::SignatureShare> shares;
    std::optional<bool> value;
    std::vector<std::function<void(bool)>> waiters;
  };

  bn::BigInt coin_element(std::uint64_t instance, std::uint32_t round) const;
  void release_share(std::uint64_t instance, std::uint32_t round, Slot& slot);
  void try_assemble(std::uint64_t instance, std::uint32_t round, Slot& slot);

  std::shared_ptr<const GroupPublic> pub_;
  // Shared crypto context for the coin key: Montgomery state and fixed-base
  // tables reused across every share release/verification/assembly.
  std::shared_ptr<const threshold::CryptoContext> ctx_;
  NodeSecret secret_;
  Callbacks cb_;
  util::Rng rng_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, Slot> slots_;
};

}  // namespace sdns::abcast
