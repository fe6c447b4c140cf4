#include "abcast/broadcast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "sim/network.hpp"
#include "util/rng.hpp"

namespace sdns::abcast {
namespace {

using sim::Network;
using sim::NodeId;
using sim::Simulator;
using util::Bytes;
using util::Rng;
using util::to_bytes;

const Group& group_4() {
  static const Group g = [] {
    Rng rng(2001);
    return generate_group(rng, 4, 1, 512);
  }();
  return g;
}

const Group& group_7() {
  static const Group g = [] {
    Rng rng(2002);
    return generate_group(rng, 7, 2, 512);
  }();
  return g;
}

// Wires n AtomicBroadcast nodes over a simulated network. `silenced` nodes
// exist but never submit and are cut off (crash faults); Byzantine behavior
// is injected by crafting raw frames in the tests.
struct Harness {
  explicit Harness(const Group& g, double timeout = 0.5)
      : group(g), net(sim, Rng(99), g.pub->n, 0.002) {
    net.set_jitter(0.1);
    Rng seed(98);
    delivered.resize(g.pub->n);
    verifies.resize(g.pub->n);
    for (unsigned i = 0; i < g.pub->n; ++i) {
      AtomicBroadcast::Callbacks cb;
      cb.send = [this, i](unsigned to, const Bytes& m) { net.send(i, to, m); };
      cb.deliver = [this, i](const Bytes& p) { delivered[i].push_back(p); };
      cb.now = [this] { return sim.now(); };
      cb.set_timer = [this, i](double delay, std::function<void()> fn) {
        sim.schedule(delay, [this, i, fn = std::move(fn)] {
          net.cpu(i).enqueue(sim.now(), fn);
        });
      };
      cb.charge = [this, i](threshold::CostEvent e) {
        if (e == threshold::CostEvent::kAuthVerify) ++verifies[i];
      };
      AtomicBroadcast::Options opt;
      opt.complaint_timeout = timeout;
      nodes.push_back(std::make_unique<AtomicBroadcast>(g.pub, g.secrets[i], std::move(cb),
                                                        opt, seed.fork()));
      net.set_handler(i, [this, i](NodeId from, Bytes m) {
        nodes[i]->on_message(static_cast<unsigned>(from), m);
      });
    }
  }

  // All honest nodes must have delivered the same sequence.
  void expect_total_order(const std::vector<unsigned>& faulty = {},
                          std::size_t expect_count = SIZE_MAX) {
    const std::vector<Bytes>* reference = nullptr;
    for (unsigned i = 0; i < group.pub->n; ++i) {
      if (std::find(faulty.begin(), faulty.end(), i) != faulty.end()) continue;
      if (!reference) {
        reference = &delivered[i];
        if (expect_count != SIZE_MAX) {
          EXPECT_EQ(reference->size(), expect_count) << "node " << i;
        }
      } else {
        EXPECT_EQ(delivered[i], *reference) << "node " << i << " diverged";
      }
    }
  }

  /// Submit `count` payloads named "<prefix><k>", round-robin over the
  /// nodes, `batch` at a time, running the network dry after each batch.
  void submit_batches(const std::string& prefix, std::size_t count, std::size_t batch = 16) {
    for (std::size_t k = 0; k < count; ++k) {
      nodes[k % nodes.size()]->submit(to_bytes(prefix + std::to_string(k)));
      if ((k + 1) % batch == 0 || k + 1 == count) sim.run();
    }
  }

  const Group& group;
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<AtomicBroadcast>> nodes;
  std::vector<std::vector<Bytes>> delivered;
  std::vector<std::uint64_t> verifies;  ///< kAuthVerify charges per node
};

constexpr std::uint64_t kWindow = AtomicBroadcast::kRetainWindow;

TEST(AtomicBroadcast, SinglePayloadDeliveredEverywhere) {
  Harness h(group_4());
  h.nodes[1]->submit(to_bytes("request-1"));
  h.sim.run();
  h.expect_total_order({}, 1);
  EXPECT_EQ(util::to_string(h.delivered[0][0]), "request-1");
}

TEST(AtomicBroadcast, LeaderOwnSubmission) {
  Harness h(group_4());
  h.nodes[0]->submit(to_bytes("from-leader"));
  h.sim.run();
  h.expect_total_order({}, 1);
}

TEST(AtomicBroadcast, ManyPayloadsTotalOrder) {
  Harness h(group_4());
  for (int k = 0; k < 20; ++k) {
    const unsigned origin = static_cast<unsigned>(k % 4);
    h.sim.schedule(0.001 * k, [&h, origin, k] {
      h.nodes[origin]->submit(to_bytes("msg-" + std::to_string(k)));
    });
  }
  h.sim.run();
  h.expect_total_order({}, 20);
}

TEST(AtomicBroadcast, ConcurrentSubmissionsSevenNodes) {
  Harness h(group_7());
  for (int k = 0; k < 10; ++k) {
    h.nodes[static_cast<unsigned>(k % 7)]->submit(to_bytes("p" + std::to_string(k)));
  }
  h.sim.run();
  h.expect_total_order({}, 10);
}

TEST(AtomicBroadcast, DuplicateSubmissionDeliveredOnce) {
  Harness h(group_4());
  h.nodes[1]->submit(to_bytes("dup"));
  h.nodes[2]->submit(to_bytes("dup"));
  h.sim.run();
  h.expect_total_order({}, 1);
}

TEST(AtomicBroadcast, SingleNodeGroupDegenerates) {
  Rng rng(2003);
  Group g = generate_group(rng, 1, 0, 512);
  Harness h(g);
  h.nodes[0]->submit(to_bytes("solo"));
  h.sim.run();
  ASSERT_EQ(h.delivered[0].size(), 1u);
}

TEST(AtomicBroadcast, ToleratesNonLeaderCrash) {
  Harness h(group_4());
  h.net.set_node_down(3, true);
  h.nodes[1]->submit(to_bytes("a"));
  h.nodes[2]->submit(to_bytes("b"));
  h.sim.run();
  h.expect_total_order({3}, 2);
}

TEST(AtomicBroadcast, MuteLeaderTriggersEpochChange) {
  Harness h(group_4(), /*timeout=*/0.3);
  h.net.set_node_down(0, true);  // the epoch-0 leader never speaks
  h.nodes[1]->submit(to_bytes("stuck-then-delivered"));
  h.sim.run_until(60.0);
  h.sim.run();
  h.expect_total_order({0}, 1);
  for (unsigned i = 1; i < 4; ++i) {
    EXPECT_GE(h.nodes[i]->epoch(), 1u) << "node " << i << " never changed epoch";
  }
}

TEST(AtomicBroadcast, ProgressContinuesAfterEpochChange) {
  Harness h(group_4(), 0.3);
  h.net.set_node_down(0, true);
  h.nodes[1]->submit(to_bytes("first"));
  h.sim.run();
  // After the epoch change, new submissions flow through the new leader.
  h.nodes[2]->submit(to_bytes("second"));
  h.sim.run();
  h.expect_total_order({0}, 2);
}

TEST(AtomicBroadcast, EquivocatingLeaderCannotCauseDivergence) {
  // Byzantine leader (node 0): submits two payloads, then orders seq 0 as
  // payload A for node 1 but payload B for nodes 2 and 3, echoing B itself.
  Harness h(group_4(), 0.3);
  const Bytes pa = to_bytes("payload-A");
  const Bytes pb = to_bytes("payload-B");
  const Digest da = AtomicBroadcast::digest_of(pa);
  const Digest db = AtomicBroadcast::digest_of(pb);
  for (unsigned j = 1; j < 4; ++j) {
    h.net.send(0, j, AtomicBroadcast::encode_submit(pa));
    h.net.send(0, j, AtomicBroadcast::encode_submit(pb));
  }
  h.net.send(0, 1, AtomicBroadcast::encode_order(0, 0, da));
  h.net.send(0, 2, AtomicBroadcast::encode_order(0, 0, db));
  h.net.send(0, 3, AtomicBroadcast::encode_order(0, 0, db));
  // The leader's own (valid) echo for B gives B a quorum: 0, 2, 3.
  for (unsigned j = 1; j < 4; ++j) {
    h.net.send(0, j, AtomicBroadcast::encode_echo(0, 0, db, h.group.secrets[0]));
  }
  h.sim.run();
  // All honest nodes must agree; B commits at seq 0, and A must still be
  // delivered later (it stays pending, honest nodes complain, epoch change
  // re-orders it under the new leader).
  h.expect_total_order({0}, 2);
  ASSERT_EQ(h.delivered[1].size(), 2u);
  EXPECT_EQ(h.delivered[1][0], pb);
  EXPECT_EQ(h.delivered[1][1], pa);
}

TEST(AtomicBroadcast, MalformedMessagesIgnored) {
  Harness h(group_4());
  h.nodes[1]->on_message(0, to_bytes("\xA2garbage"));
  h.nodes[1]->on_message(0, Bytes{});
  h.nodes[1]->on_message(99, to_bytes("x"));  // out-of-range sender
  h.nodes[1]->submit(to_bytes("still-works"));
  h.sim.run();
  h.expect_total_order({}, 1);
}

TEST(AtomicBroadcast, ForgedEchoSignaturesRejected) {
  Harness h(group_4());
  // Node 3 fakes echoes from itself for a bogus digest with a garbage sig:
  // a prepared certificate must not form from forged votes.
  const Digest bogus = AtomicBroadcast::digest_of(to_bytes("bogus"));
  util::Writer w;
  w.u8(0xA3);  // kEcho
  w.u32(0);
  w.u64(0);
  w.raw(bogus.data(), bogus.size());
  w.lp16(to_bytes("not-a-signature"));
  for (unsigned j = 0; j < 3; ++j) h.net.send(3, j, w.bytes());
  h.nodes[1]->submit(to_bytes("legit"));
  h.sim.run();
  h.expect_total_order({}, 1);
  EXPECT_EQ(util::to_string(h.delivered[0][0]), "legit");
}

TEST(AtomicBroadcast, LatePayloadFetchedViaGetPayload) {
  // Node 3 misses the SUBMIT (partitioned from the origin) but still learns
  // the commit; it must fetch the payload and deliver.
  Harness h(group_4());
  h.net.set_partitioned(1, 3, true);
  h.nodes[1]->submit(to_bytes("fetched-later"));
  h.sim.run_until(0.2);
  h.net.set_partitioned(1, 3, false);
  h.sim.run();
  h.expect_total_order({}, 1);
  ASSERT_EQ(h.delivered[3].size(), 1u);
}

TEST(AtomicBroadcast, StateBelowWindowIsReleased) {
  // Per-sequence state (slots, commit bindings, certificates, payload
  // bodies) is kept for the last kRetainWindow deliveries only, so memory
  // stays flat however many updates a replica has committed.
  Harness h(group_4());
  constexpr std::size_t kBatch = 16;
  const std::size_t total = 4 * kWindow + 10;
  std::size_t peak_seqs = 0;
  std::size_t peak_payloads = 0;
  for (std::size_t done = 0; done < total; done += kBatch) {
    const std::size_t count = std::min(kBatch, total - done);
    for (std::size_t k = done; k < done + count; ++k) {
      h.nodes[k % 4]->submit(to_bytes("p" + std::to_string(k)));
    }
    h.sim.run();
    for (const auto& node : h.nodes) {
      peak_seqs = std::max(peak_seqs, node->retained_seqs());
      peak_payloads = std::max(peak_payloads, node->retained_payloads());
    }
  }
  h.expect_total_order({}, total);
  for (const auto& node : h.nodes) {
    EXPECT_EQ(node->delivered_count(), total);
    EXPECT_EQ(node->retain_floor(), total - kWindow);
    EXPECT_LE(node->retained_seqs(), kWindow);
  }
  EXPECT_LE(peak_seqs, kWindow + kBatch);
  EXPECT_LE(peak_payloads, kWindow + kBatch);
}

TEST(AtomicBroadcast, LateVoteBelowWindowIsDroppedUnverified) {
  // A vote for a released sequence number can change nothing (the slot is
  // delivered everywhere that matters), so it must cost no RSA verify and
  // must not recreate the state the window freed.
  Harness h(group_4());
  h.submit_batches("p", kWindow + 20);
  h.expect_total_order({}, kWindow + 20);
  AtomicBroadcast& node = *h.nodes[1];
  ASSERT_GT(node.retain_floor(), 0u);
  const std::uint64_t old_seq = 0;
  const Digest d = AtomicBroadcast::digest_of(to_bytes("p0"));
  const std::size_t seqs_before = node.retained_seqs();
  const std::size_t payloads_before = node.retained_payloads();
  const std::uint64_t verifies_before = h.verifies[1];

  auto vote = [&](std::uint8_t type) {
    util::Writer w;
    w.u8(type);
    w.u32(0);
    w.u64(old_seq);
    w.raw(d.data(), d.size());
    w.lp16(to_bytes("unverified signature"));
    return std::move(w).take();
  };
  util::Writer committed;
  committed.u8(0xA5);  // kCommitted: a certificate of three signatures
  committed.u32(0);
  committed.u64(old_seq);
  committed.raw(d.data(), d.size());
  committed.u16(3);
  for (unsigned signer = 0; signer < 3; ++signer) {
    committed.u32(signer);
    committed.lp16(to_bytes("unverified signature"));
  }
  node.on_message(0, AtomicBroadcast::encode_order(0, old_seq, d));
  node.on_message(2, AtomicBroadcast::encode_echo(0, old_seq, d, h.group.secrets[2]));
  node.on_message(3, vote(0xA4));  // kCommit
  node.on_message(3, committed.bytes());
  h.sim.run();

  EXPECT_EQ(h.verifies[1], verifies_before);
  EXPECT_EQ(node.retained_seqs(), seqs_before);
  EXPECT_EQ(node.retained_payloads(), payloads_before);
  EXPECT_EQ(node.delivered_count(), kWindow + 20);
}

TEST(AtomicBroadcast, ResubmittedOldPayloadStillDeliveredOnce) {
  // At-most-once delivery outlives the window: the delivered digest set is
  // kept even after the payload body and its sequence state are released.
  Harness h(group_4());
  const Bytes old = to_bytes("delivered-long-ago");
  h.nodes[1]->submit(old);
  h.sim.run();
  h.submit_batches("later", kWindow + 10);
  ASSERT_GT(h.nodes[2]->retain_floor(), 0u);

  h.nodes[2]->submit(old);
  h.nodes[3]->on_message(1, AtomicBroadcast::encode_submit(old));
  h.sim.run();
  h.expect_total_order({}, kWindow + 11);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(std::count(h.delivered[i].begin(), h.delivered[i].end(), old), 1) << i;
    EXPECT_EQ(h.nodes[i]->pending_count(), 0u) << i;
    EXPECT_TRUE(h.nodes[i]->already_delivered(AtomicBroadcast::digest_of(old))) << i;
  }
}

TEST(AtomicBroadcast, StatsExposed) {
  Harness h(group_4());
  h.nodes[1]->submit(to_bytes("x"));
  h.sim.run();
  EXPECT_EQ(h.nodes[1]->delivered_count(), 1u);
  EXPECT_EQ(h.nodes[1]->pending_count(), 0u);
  EXPECT_TRUE(h.nodes[0]->is_leader());
  EXPECT_FALSE(h.nodes[1]->is_leader());
  EXPECT_GT(h.net.messages_sent(), 10u);
}

}  // namespace
}  // namespace sdns::abcast
