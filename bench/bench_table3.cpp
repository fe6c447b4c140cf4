// Reproduces Table 3: breakdown of the time spent in one BASIC threshold
// signature on the (4,0)* LAN setup.
//
// Two views are printed:
//   1. The calibrated model: operation counts observed at the gateway during
//      a real BASIC signing session, priced with the cost model (which was
//      fitted to the paper's 266 MHz / Java BigInteger measurements).
//   2. The real cost of the same operations in this C++ implementation
//      (wall-clock microseconds, 1024-bit modulus), to document the gap
//      between 2004 Java and modern C++.
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>

#include "sim/costmodel.hpp"
#include "threshold/fixtures.hpp"
#include "threshold/protocol.hpp"

using namespace sdns;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main() {
  std::printf("=== Table 3: breakdown of one BASIC threshold signature, (4,0)* ===\n\n");

  // Run one real BASIC signing round among 4 parties in-memory and count the
  // gateway's operations.
  util::Rng rng(33);
  auto key = threshold::deal_with_primes(rng, 4, 1, threshold::fixtures::safe_prime_512_a(),
                                         threshold::fixtures::safe_prime_512_b());
  const bn::BigInt x =
      threshold::hash_to_element(key.pub, util::to_bytes("www.corp.example. A"));

  int counts[threshold::kCostEventCount] = {};
  std::deque<std::pair<unsigned, util::Bytes>> queue;
  std::vector<std::unique_ptr<threshold::SigningSession>> sessions;
  for (unsigned i = 1; i <= 4; ++i) {
    threshold::SessionCallbacks cb;
    cb.send_to_all = [&queue, i](const util::Bytes& m) {
      for (unsigned j = 1; j <= 4; ++j) {
        if (j != i) queue.push_back({j, m});
      }
    };
    if (i == 1) {  // the gateway
      cb.charge = [&counts](threshold::CostEvent op) { ++counts[static_cast<int>(op)]; };
    }
    sessions.push_back(std::make_unique<threshold::SigningSession>(
        key.pub, key.shares[i - 1], threshold::SigProtocol::kBasic, 1, x, std::move(cb),
        rng.fork()));
  }
  for (auto& s : sessions) s->start();
  while (!queue.empty()) {
    auto [to, msg] = queue.front();
    queue.pop_front();
    sessions[to - 1]->on_message(msg);
  }

  const sim::CostModel model;
  struct Row {
    const char* label;
    double seconds;
  };
  const double gen = counts[static_cast<int>(threshold::CostEvent::kShareValue)] *
                         model.share_value +
                     counts[static_cast<int>(threshold::CostEvent::kProofGen)] *
                         model.proof_gen;
  const double verify = counts[static_cast<int>(threshold::CostEvent::kProofVerify)] *
                        model.proof_verify;
  const double assemble =
      counts[static_cast<int>(threshold::CostEvent::kAssemble)] * model.assemble;
  const double final_verify =
      counts[static_cast<int>(threshold::CostEvent::kFinalVerify)] * model.final_verify;
  const double total = gen + verify + assemble + final_verify;
  const Row rows[] = {{"generate share", gen},
                      {"verify share", verify},
                      {"assemble sig.", assemble},
                      {"verify sig.", final_verify}};
  std::printf("Modeled on the PII-266 reference machine (gateway's ops):\n");
  std::printf("%-16s %12s %10s\n", "operation", "absolute [s]", "relative");
  for (const Row& r : rows) {
    std::printf("%-16s %12.3f %9.1f%%\n", r.label, r.seconds, 100.0 * r.seconds / total);
  }
  std::printf("%-16s %12.3f\n\n", "total", total);
  std::printf("Paper's Table 3:  generate 0.82 (49.6%%) | verify 0.78 (47.2%%) | "
              "assemble 0.05 (3.0%%) | verify sig 0.003 (0.2%%)\n\n");

  // Real costs of this implementation (1024-bit modulus).
  std::printf("Actual cost of the same operations in this C++ implementation\n");
  std::printf("(1024-bit modulus, single core, milliseconds per op):\n");
  util::Rng r2(34);
  auto t0 = Clock::now();
  constexpr int kIters = 20;
  threshold::SignatureShare share_with_proof;
  for (int i = 0; i < kIters; ++i) {
    share_with_proof = threshold::generate_share(key.pub, key.shares[1], x, true, r2);
  }
  std::printf("%-24s %8.3f ms\n", "generate share+proof", ms_since(t0) / kIters);
  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    (void)threshold::verify_share(key.pub, x, share_with_proof);
  }
  std::printf("%-24s %8.3f ms\n", "verify share proof", ms_since(t0) / kIters);
  std::vector<threshold::SignatureShare> shares;
  for (unsigned i = 1; i <= 2; ++i) {
    shares.push_back(threshold::generate_share(key.pub, key.shares[i - 1], x, false, r2));
  }
  t0 = Clock::now();
  std::optional<bn::BigInt> y;
  for (int i = 0; i < kIters; ++i) y = threshold::assemble(key.pub, x, shares);
  std::printf("%-24s %8.3f ms\n", "assemble signature", ms_since(t0) / kIters);
  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) (void)threshold::verify_signature(key.pub, x, *y);
  std::printf("%-24s %8.3f ms\n", "verify signature", ms_since(t0) / kIters);
  return 0;
}
