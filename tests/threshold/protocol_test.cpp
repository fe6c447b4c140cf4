#include "threshold/protocol.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "threshold/fixtures.hpp"
#include "util/rng.hpp"

namespace sdns::threshold {
namespace {

using bn::BigInt;
using util::Bytes;
using util::Rng;
using util::to_bytes;

// In-memory router: runs one SigningSession per server and delivers messages
// in configurable order until quiescence.
class Harness {
 public:
  Harness(unsigned n, unsigned t, SigProtocol protocol,
          std::vector<unsigned> corrupted = {}, std::uint64_t seed = 1)
      : n_(n) {
    Rng rng(seed);
    key_ = deal_with_primes(rng, n, t, fixtures::safe_prime_256_a(),
                            fixtures::safe_prime_256_b());
    const BigInt x = hash_to_element(key_.pub, to_bytes("harness message"));
    x_ = x;
    for (unsigned i = 1; i <= n; ++i) {
      const bool corrupt =
          std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end();
      SessionCallbacks cb;
      cb.send_to_all = [this, i](const Bytes& m) {
        for (unsigned j = 1; j <= n_; ++j) {
          if (j != i) queue_.push_back({j, m});
        }
      };
      cb.charge = [this](CostEvent op) { ++op_counts_[static_cast<int>(op)]; };
      cb.metrics = &metrics_;
      sessions_.push_back(std::make_unique<SigningSession>(
          key_.pub, key_.shares[i - 1], protocol, /*sid=*/77, x, std::move(cb),
          rng.fork(),
          corrupt ? ShareCorruption::kFlipShare : ShareCorruption::kNone));
    }
  }

  void run() {
    for (auto& s : sessions_) s->start();
    std::size_t steps = 0;
    while (!queue_.empty()) {
      ASSERT_LT(++steps, 100000u) << "protocol did not quiesce";
      auto [to, msg] = queue_.front();
      queue_.pop_front();
      sessions_[to - 1]->on_message(msg);
    }
  }

  const DealtKey& key() const { return key_; }
  const BigInt& x() const { return x_; }
  SigningSession& session(unsigned i) { return *sessions_[i - 1]; }
  int op_count(CostEvent op) const { return op_counts_[static_cast<int>(op)]; }
  std::uint64_t counter(const char* name) const { return metrics_.counter_value(name); }
  unsigned n() const { return n_; }

 private:
  unsigned n_;
  DealtKey key_;
  BigInt x_;
  obs::Registry metrics_;  // shared by every session; outlives them
  std::vector<std::unique_ptr<SigningSession>> sessions_;
  std::deque<std::pair<unsigned, Bytes>> queue_;
  int op_counts_[kCostEventCount] = {};
};

void expect_all_honest_complete(Harness& h, const std::vector<unsigned>& corrupted = {}) {
  for (unsigned i = 1; i <= h.n(); ++i) {
    if (std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end()) continue;
    ASSERT_TRUE(h.session(i).done()) << "server " << i << " incomplete";
    EXPECT_TRUE(verify_signature(h.key().pub, h.x(), h.session(i).signature()))
        << "server " << i;
  }
}

class AllProtocols : public ::testing::TestWithParam<SigProtocol> {};

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocols,
                         ::testing::Values(SigProtocol::kBasic, SigProtocol::kOptProof,
                                           SigProtocol::kOptTE),
                         [](const auto& info) { return to_string(info.param); });

TEST_P(AllProtocols, FourServersNoCorruptionAllComplete) {
  Harness h(4, 1, GetParam());
  h.run();
  expect_all_honest_complete(h);
}

TEST_P(AllProtocols, SevenServersNoCorruptionAllComplete) {
  Harness h(7, 2, GetParam());
  h.run();
  expect_all_honest_complete(h);
}

TEST_P(AllProtocols, FourServersOneCorruptedHonestStillComplete) {
  Harness h(4, 1, GetParam(), {1});
  h.run();
  expect_all_honest_complete(h, {1});
}

TEST_P(AllProtocols, SevenServersTwoCorruptedHonestStillComplete) {
  Harness h(7, 2, GetParam(), {1, 5});
  h.run();
  expect_all_honest_complete(h, {1, 5});
}

TEST_P(AllProtocols, SignaturesAgreeAcrossServers) {
  Harness h(7, 2, GetParam(), {2});
  h.run();
  BigInt first;
  bool have = false;
  for (unsigned i = 1; i <= 7; ++i) {
    if (i == 2 || !h.session(i).done()) continue;
    if (!have) {
      first = h.session(i).signature();
      have = true;
    } else {
      EXPECT_EQ(h.session(i).signature(), first);
    }
  }
  EXPECT_TRUE(have);
}

TEST_P(AllProtocols, DifferentSeedsStillSucceed) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    Harness h(4, 1, GetParam(), {3}, seed);
    h.run();
    expect_all_honest_complete(h, {3});
  }
}

TEST(ProtocolBasic, UsesProofsOnEveryShare) {
  Harness h(4, 1, SigProtocol::kBasic);
  h.run();
  EXPECT_GT(h.op_count(CostEvent::kProofGen), 0);
  EXPECT_GT(h.op_count(CostEvent::kProofVerify), 0);
}

TEST(ProtocolOptProof, SkipsProofsWhenAllHonest) {
  Harness h(4, 1, SigProtocol::kOptProof);
  h.run();
  EXPECT_EQ(h.op_count(CostEvent::kProofGen), 0);
  EXPECT_EQ(h.op_count(CostEvent::kProofVerify), 0);
}

TEST(ProtocolOptProof, FallsBackToProofsUnderCorruption) {
  Harness h(4, 1, SigProtocol::kOptProof, {1});
  h.run();
  expect_all_honest_complete(h, {1});
  // The corrupted share forces at least one server into proof mode.
  EXPECT_GT(h.op_count(CostEvent::kProofGen), 0);
}

TEST(ProtocolOptTE, NeverUsesProofs) {
  Harness h(7, 2, SigProtocol::kOptTE, {1, 2});
  h.run();
  expect_all_honest_complete(h, {1, 2});
  EXPECT_EQ(h.op_count(CostEvent::kProofGen), 0);
  EXPECT_EQ(h.op_count(CostEvent::kProofVerify), 0);
}

TEST(ProtocolOptTE, CorruptionCostsExtraAssemblyAttempts) {
  Harness clean(7, 2, SigProtocol::kOptTE);
  clean.run();
  Harness dirty(7, 2, SigProtocol::kOptTE, {1, 2});
  dirty.run();
  EXPECT_GT(dirty.op_count(CostEvent::kAssemble), clean.op_count(CostEvent::kAssemble));
}

TEST(ProtocolOptTE, FaultFreeSubsetAssemblyCountsOptimisticHits) {
  Harness h(4, 1, SigProtocol::kOptTE);
  h.run();
  expect_all_honest_complete(h);
  EXPECT_GE(h.counter("threshold.optimistic.hit"), 1u);
  EXPECT_EQ(h.counter("threshold.optimistic.miss"), 0u);
}

TEST(ProtocolOptTE, FlippedShareCountsOptimisticMiss) {
  Harness h(4, 1, SigProtocol::kOptTE, {1});
  h.run();
  expect_all_honest_complete(h, {1});
  EXPECT_GE(h.counter("threshold.optimistic.miss"), 1u);
  EXPECT_GE(h.counter("threshold.optimistic.hit"), 1u);
}

TEST(Protocol, MalformedMessagesAreIgnored) {
  Harness h(4, 1, SigProtocol::kBasic);
  h.session(1).on_message(to_bytes("garbage"));
  h.run();
  Bytes junk{0, 0, 0, 0, 0, 0, 0, 77, 9, 1, 2, 3};  // right sid, bad type
  h.session(1).on_message(junk);
  expect_all_honest_complete(h);
}

TEST(Protocol, WrongSessionIdIgnored) {
  Harness h(4, 1, SigProtocol::kOptTE);
  util::Writer w;
  w.u64(999);  // not session 77
  w.u8(1);
  h.session(2).on_message(w.bytes());
  h.run();
  expect_all_honest_complete(h);
}

TEST(Protocol, PeekSessionId) {
  util::Writer w;
  w.u64(0xabcdef);
  w.u8(1);
  EXPECT_EQ(SigningSession::peek_session_id(w.bytes()), 0xabcdefu);
  EXPECT_EQ(SigningSession::peek_session_id(to_bytes("short")), std::nullopt);
}

TEST(Protocol, MutedCorruptionStillAllowsHonestProgress) {
  // A corrupted server that simply never sends anything: honest servers must
  // still finish because t+1 honest shares exist.
  Rng rng(9);
  DealtKey key = deal_with_primes(rng, 4, 1, fixtures::safe_prime_256_a(),
                                  fixtures::safe_prime_256_b());
  const BigInt x = hash_to_element(key.pub, to_bytes("mute test"));
  std::deque<std::pair<unsigned, Bytes>> queue;
  std::vector<std::unique_ptr<SigningSession>> sessions;
  for (unsigned i = 1; i <= 4; ++i) {
    SessionCallbacks cb;
    cb.send_to_all = [&queue, i](const Bytes& m) {
      for (unsigned j = 1; j <= 4; ++j) {
        if (j != i) queue.push_back({j, m});
      }
    };
    sessions.push_back(std::make_unique<SigningSession>(
        key.pub, key.shares[i - 1], SigProtocol::kBasic, 5, x, std::move(cb), rng.fork(),
        i == 2 ? ShareCorruption::kMute : ShareCorruption::kNone));
  }
  for (auto& s : sessions) s->start();
  while (!queue.empty()) {
    auto [to, msg] = queue.front();
    queue.pop_front();
    sessions[to - 1]->on_message(msg);
  }
  for (unsigned i = 1; i <= 4; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(sessions[i - 1]->done()) << i;
  }
}

}  // namespace
}  // namespace sdns::threshold
