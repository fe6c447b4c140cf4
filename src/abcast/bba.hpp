// Asynchronous binary Byzantine agreement with a common coin.
//
// This is the randomized agreement primitive SINTRA's protocols rest on
// (Cachin-Kursawe-Shoup, PODC 2000): signature-free voting rounds in the
// style of Mostefaoui-Moumen-Raynal, with ties broken by the threshold-RSA
// common coin (coin.hpp).  It needs no timing assumptions — exactly the
// property the paper cites for preferring SINTRA over deterministic BFT —
// and terminates with probability 1 in an expected constant number of
// rounds.
//
// Guarantees with n >= 3t+1 and at most t Byzantine nodes:
//   Agreement:   no two honest nodes decide differently.
//   Validity:    the decision is some honest node's input.
//   Termination: every honest node decides with probability 1.
//
// The atomic broadcast layer uses one instance per epoch-abandonment vote.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "abcast/coin.hpp"

namespace sdns::abcast {

class BinaryAgreement {
 public:
  struct Callbacks {
    std::function<void(const util::Bytes&)> send_to_all;
    /// Fires exactly once with the decided bit.
    std::function<void(bool)> on_decide;
    /// Per-message processing cost hook; may be empty.
    std::function<void(threshold::CostEvent)> charge;
  };

  BinaryAgreement(std::shared_ptr<const GroupPublic> pub, unsigned my_id,
                  std::uint64_t instance, ThresholdCoin& coin, Callbacks callbacks);

  /// Join the agreement with the given proposal. Must be called once.
  void start(bool input);
  bool started() const { return started_; }

  void on_message(unsigned from, util::BytesView msg);

  /// Re-broadcast this node's outstanding messages: the decision if one was
  /// reached, otherwise the current round's BVAL/AUX votes and — if the round
  /// is blocked on the common coin — our coin share. Every frame is one-shot
  /// on first send; peers cut off by a crash or partition need this to catch
  /// up, or an agreement instance can stall below its quorums forever.
  /// Owners call it from a periodic retry timer. Idempotent at receivers.
  void rebroadcast();

  bool decided() const { return decision_.has_value(); }
  bool decision() const { return *decision_; }
  std::uint32_t rounds_used() const { return round_; }

  std::uint64_t instance() const { return instance_; }

  /// Dispatch helper: true for BVAL/AUX/DECIDE frames of any instance.
  static bool is_bba_message(util::BytesView msg);
  /// Extract the instance id (nullopt on malformed input).
  static std::optional<std::uint64_t> peek_instance(util::BytesView msg);

 private:
  enum MsgType : std::uint8_t { kBval = 0xB1, kAux = 0xB2, kDecide = 0xB3 };

  struct Round {
    std::set<unsigned> bval_from[2];   ///< senders per bit
    bool bval_sent[2] = {false, false};
    bool bin_values[2] = {false, false};
    std::map<unsigned, bool> aux;      ///< sender -> aux bit
    bool aux_sent = false;
    bool coin_requested = false;
    std::optional<bool> coin;
  };

  util::Bytes frame(MsgType type, std::uint32_t round, bool bit) const;
  void broadcast_bval(std::uint32_t round, bool bit);
  void advance(std::uint32_t round);
  void try_finish_round(std::uint32_t round);
  void decide(bool value);

  std::shared_ptr<const GroupPublic> pub_;
  unsigned my_id_;
  std::uint64_t instance_;
  ThresholdCoin& coin_;
  Callbacks cb_;

  bool started_ = false;
  bool halted_ = false;
  bool est_ = false;
  std::uint32_t round_ = 0;
  std::map<std::uint32_t, Round> rounds_;
  std::optional<bool> decision_;
  bool decide_sent_ = false;
  std::set<unsigned> decide_from_[2];
};

}  // namespace sdns::abcast
