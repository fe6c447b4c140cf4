#include <gtest/gtest.h>

#include "sim/costmodel.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/testbed.hpp"

namespace sdns::sim {
namespace {

TEST(Simulator, EventsFireInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, FifoTieBreakAtSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule(1.0, [&] { sim.schedule(2.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_EQ(fired_at, 3.0);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule(5.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&] { ++count; });
  }
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulator, EventCapThrows) {
  Simulator sim;
  sim.set_event_cap(10);
  std::function<void()> loop = [&] { sim.schedule(0.1, loop); };
  sim.schedule(0, loop);
  EXPECT_THROW(sim.run(), EventCapExceeded);
}

TEST(Network, DeliversAfterLatency) {
  Simulator sim;
  Network net(sim, util::Rng(1), 2, 0.010);
  net.set_jitter(0);
  double arrival = -1;
  net.set_handler(1, [&](NodeId from, util::Bytes msg) {
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(util::to_string(msg), "hello");
    arrival = sim.now();
  });
  net.send(0, 1, util::to_bytes("hello"));
  sim.run();
  EXPECT_DOUBLE_EQ(arrival, 0.010);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), 5u);
}

TEST(Network, JitterBoundsDelay) {
  Simulator sim;
  Network net(sim, util::Rng(2), 2, 0.100);
  net.set_jitter(0.5);
  std::vector<double> arrivals;
  net.set_handler(1, [&](NodeId, util::Bytes) { arrivals.push_back(sim.now()); });
  for (int i = 0; i < 50; ++i) net.send(0, 1, {0});
  sim.run();
  for (double t : arrivals) {
    EXPECT_GE(t, 0.100 - 1e-12);
    EXPECT_LE(t, 0.150 + 1e-12);
  }
}

TEST(Network, CpuSerializesHandlers) {
  // Two messages arrive together; the handler charges 1s of work, so the
  // second handler must start after the first finishes.
  Simulator sim;
  Network net(sim, util::Rng(3), 2, 0.010);
  net.set_jitter(0);
  std::vector<double> starts;
  net.set_handler(1, [&](NodeId, util::Bytes) {
    starts.push_back(sim.now());
    net.cpu(1).charge(1.0);
  });
  net.send(0, 1, {1});
  net.send(0, 1, {2});
  sim.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_DOUBLE_EQ(starts[0], 0.010);
  EXPECT_DOUBLE_EQ(starts[1], 1.010);
}

TEST(Network, SpeedScalesCharges) {
  Simulator sim;
  Network net(sim, util::Rng(4), 2, 0.010);
  net.set_jitter(0);
  net.set_speed(1, 4.0);  // 4x the reference machine
  std::vector<double> starts;
  net.set_handler(1, [&](NodeId, util::Bytes) {
    starts.push_back(sim.now());
    net.cpu(1).charge(1.0);  // reference second => 0.25s here
  });
  net.send(0, 1, {1});
  net.send(0, 1, {2});
  sim.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_NEAR(starts[1] - starts[0], 0.25, 1e-9);
}

TEST(Network, SendDuringHandlerDepartsAfterCharge) {
  // A reply sent from inside a handler departs when the charged work is
  // done, not at handler entry.
  Simulator sim;
  Network net(sim, util::Rng(5), 2, 0.010);
  net.set_jitter(0);
  double reply_at = -1;
  net.set_handler(1, [&](NodeId, util::Bytes) {
    net.cpu(1).charge(0.5);
    net.send(1, 0, util::to_bytes("reply"));
  });
  net.set_handler(0, [&](NodeId, util::Bytes) { reply_at = sim.now(); });
  net.send(0, 1, {1});
  sim.run();
  EXPECT_NEAR(reply_at, 0.010 + 0.5 + 0.010, 1e-9);
}

TEST(Network, DropAndPartitionAndDown) {
  Simulator sim;
  Network net(sim, util::Rng(6), 3, 0.001);
  int received = 0;
  net.set_handler(1, [&](NodeId, util::Bytes) { ++received; });
  net.set_drop_rate(0, 1, 1.0);
  net.send(0, 1, {1});
  net.set_drop_rate(0, 1, 0.0);
  net.set_partitioned(0, 1, true);
  net.send(0, 1, {2});
  net.set_partitioned(0, 1, false);
  net.set_node_down(1, true);
  net.send(0, 1, {3});
  net.set_node_down(1, false);
  net.send(0, 1, {4});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.messages_dropped(), 3u);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    Network net(sim, util::Rng(7), 4, 0.01);
    std::vector<std::pair<NodeId, double>> log;
    for (NodeId i = 0; i < 4; ++i) {
      net.set_handler(i, [&log, &sim, i](NodeId, util::Bytes) {
        log.push_back({i, sim.now()});
      });
    }
    for (int k = 0; k < 20; ++k) net.send(k % 4, (k + 1) % 4, {static_cast<std::uint8_t>(k)});
    sim.run();
    return log;
  };
  EXPECT_EQ(run(), run());
}

TEST(Testbed, TopologiesHaveExpectedSizes) {
  EXPECT_EQ(make_testbed(Topology::kSingleZurich).replica_count(), 1u);
  EXPECT_EQ(make_testbed(Topology::kLan4).replica_count(), 4u);
  EXPECT_EQ(make_testbed(Topology::kInternet4).replica_count(), 4u);
  EXPECT_EQ(make_testbed(Topology::kInternet7).replica_count(), 7u);
}

TEST(Testbed, ApplyConfiguresLatenciesAndSpeeds) {
  auto bed = make_testbed(Topology::kInternet7);
  Simulator sim;
  Network net(sim, util::Rng(8), bed.machines.size(), 0.0);
  apply_testbed(bed, net);
  // Zurich LAN links are sub-millisecond; Zurich <-> San Jose is 80 ms one way.
  EXPECT_LT(net.latency(0, 1), 0.001);
  EXPECT_NEAR(net.latency(0, 6), 0.080, 1e-9);
  // Austin is the fast machine.
  EXPECT_GT(net.cpu(5).speed(), 4.0);
  // Client is on the Zurich LAN.
  EXPECT_LT(net.latency(bed.client, 0), 0.001);
}

TEST(Testbed, BannersNonEmpty) {
  EXPECT_FALSE(testbed_table1().empty());
  EXPECT_FALSE(testbed_figure1().empty());
}

TEST(CostModel, MatchesPaperTable3) {
  CostModel m;
  // Table 3: generate share 0.82 (= value + proof), verify 0.78, assemble
  // 0.05, verify signature 0.003.
  EXPECT_NEAR(m.cost(threshold::CostEvent::kShareValue) +
                  m.cost(threshold::CostEvent::kProofGen),
              0.82, 1e-9);
  EXPECT_NEAR(m.cost(threshold::CostEvent::kProofVerify), 0.78, 1e-9);
  EXPECT_NEAR(m.cost(threshold::CostEvent::kAssemble), 0.05, 1e-9);
  EXPECT_NEAR(m.cost(threshold::CostEvent::kFinalVerify), 0.003, 1e-9);
}

TEST(CostModel, PricesEveryEventOfTheOneHook) {
  // The broadcast and DNS events the single charge hook reports cost what
  // their named fields say, so one lambda can charge every layer.
  CostModel m;
  using E = threshold::CostEvent;
  EXPECT_EQ(m.cost(E::kMessage), m.message_handle);
  EXPECT_EQ(m.cost(E::kAuthSign), m.auth_sign);
  EXPECT_EQ(m.cost(E::kAuthVerify), m.auth_verify);
  EXPECT_EQ(m.cost(E::kDnsQuery), m.dns_query);
  EXPECT_EQ(m.cost(E::kDnsUpdate), m.dns_update);
  EXPECT_EQ(m.cost(E::kLocalSign), m.local_sign);
  for (std::size_t e = 0; e < threshold::kCostEventCount; ++e) {
    EXPECT_GT(m.cost(static_cast<E>(e)), 0.0) << "event " << e;
  }
}

}  // namespace
}  // namespace sdns::sim
