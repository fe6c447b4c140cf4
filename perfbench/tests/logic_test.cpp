// Tests of the rules the benchmark reports by: percentile ranks and the
// >= 10-beyond rule, seeded input generation, failed-op accounting, the
// capacity ladder search and span self-time arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "logic.hpp"

using namespace perfbench;

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0.5), 1);
  EXPECT_EQ(percentile({7.0}, 99), 7);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, RankIsExactAtIntegralProducts) {
  // 99% of 1000 is exactly 990: rank 990 (index 989), not 991.
  EXPECT_EQ(percentile_rank(1000, 99), 989u);
  EXPECT_EQ(percentile_rank(200, 95), 189u);
  EXPECT_EQ(percentile_rank(999, 99), 989u);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_TRUE(supports_percentile(1000, 99));
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_FALSE(supports_percentile(999, 99));
  EXPECT_TRUE(supports_percentile(200, 95));
  EXPECT_FALSE(supports_percentile(199, 95));
  EXPECT_TRUE(supports_percentile(100, 90));
  EXPECT_FALSE(supports_percentile(100, 95));
  EXPECT_FALSE(supports_percentile(0, 50));
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Inputs, ZoneIsDeterministicPerSeed) {
  const ZoneSpec a = make_zone(42, 500, "example.com.");
  const ZoneSpec b = make_zone(42, 500, "example.com.");
  const ZoneSpec c = make_zone(43, 500, "example.com.");
  ASSERT_EQ(a.names.size(), 500u);
  EXPECT_EQ(a.master_text(), b.master_text());
  EXPECT_NE(a.master_text(), c.master_text());
  std::set<std::string> labels;
  for (const ZoneName& n : a.names) {
    EXPECT_EQ(n.label[0], 'w');
    labels.insert(n.label);
  }
  EXPECT_EQ(labels.size(), 500u);
  EXPECT_EQ(a.fqdn(0), a.names[0].label + ".example.com.");
}

TEST(Inputs, GeneratedNamesNeverCollideWithTheZone) {
  EXPECT_EQ(nx_label(9, 3), nx_label(9, 3));
  EXPECT_NE(nx_label(9, 3), nx_label(9, 4));
  EXPECT_NE(nx_label(9, 3), nx_label(10, 3));
  EXPECT_NE(nx_label(9, 3)[0], 'w');
  EXPECT_NE(update_label(9, 3)[0], 'w');
  EXPECT_NE(update_label(9, 3), nx_label(9, 3));
}

TEST(Inputs, ZipfIsDeterministicAndSkewed) {
  const Zipf zipf(1000, 1.1);
  sdns::util::Rng r1(5), r2(5);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t a = zipf.draw(r1);
    ASSERT_EQ(a, zipf.draw(r2));
    ASSERT_LT(a, 1000u);
    ++counts[a];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[0], 2000);  // rank 0 carries ~13% of the mass at s=1.1
}

TEST(Inputs, ReadGeneratorIsDeterministicPerSeedAndStream) {
  const ReadMix mix{1.1, 0.05, 0.02, 0.02, 0.3, 0.5};
  ReadGenerator a(mix, 500, 7, 1), b(mix, 500, 7, 1), c(mix, 500, 8, 1), d(mix, 500, 7, 2);
  int differs_seed = 0, differs_stream = 0, nx = 0, dnssec = 0, small = 0;
  for (int i = 0; i < 2000; ++i) {
    const ReadQuery qa = a.next(), qb = b.next(), qc = c.next(), qd = d.next();
    ASSERT_EQ(qa.kind, qb.kind);
    ASSERT_EQ(qa.index, qb.index);
    ASSERT_EQ(qa.dnssec_ok, qb.dnssec_ok);
    ASSERT_EQ(qa.udp_payload, qb.udp_payload);
    small += qa.udp_payload == 1232;
    if (qa.kind == QueryKind::kName) {
      ASSERT_LT(qa.index, 500u);
    }
    differs_seed += qa.kind != qc.kind || qa.index != qc.index;
    differs_stream += qa.kind != qd.kind || qa.index != qd.index;
    nx += qa.kind == QueryKind::kNx;
    dnssec += qa.dnssec_ok;
  }
  EXPECT_GT(differs_seed, 1000);
  EXPECT_GT(differs_stream, 1000);
  EXPECT_NEAR(nx, 100, 40);
  EXPECT_NEAR(dnssec, 600, 90);
  EXPECT_NEAR(small, 1000, 120);
}

TEST(Inputs, UniformMixSpreadsOverTheZone) {
  ReadGenerator g(ReadMix{0, 0, 0, 0, 0}, 100, 3, 1);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(g.next().index);
  EXPECT_EQ(seen.size(), 100u);
}

TEST(FailedOps, FailuresStayInTheDenominatorAndMissEveryLimit) {
  LatencySet s(1000);
  s.ok(1);
  s.ok(2);
  s.ok(3);
  s.failed();
  EXPECT_EQ(s.attempted(), 4u);
  EXPECT_EQ(s.failed_count(), 1u);
  EXPECT_EQ(s.pct(50), 2);
  EXPECT_EQ(s.pct(100), 1000);  // the failure sits above every success
  LatencySet more(1000);
  more.failed();
  s.merge(more);
  EXPECT_EQ(s.attempted(), 5u);
  EXPECT_EQ(s.failed_count(), 2u);
  EXPECT_EQ(s.pct(50), 3);
}

TEST(FailedOps, TwoPercentFailuresReachP99) {
  LatencySet ok_tail(1000), failing(1000);
  for (int i = 0; i < 99; ++i) ok_tail.ok(1);
  ok_tail.failed();
  for (int i = 0; i < 98; ++i) failing.ok(1);
  failing.failed();
  failing.failed();
  EXPECT_EQ(ok_tail.pct(99), 1);
  EXPECT_EQ(failing.pct(99), 1000);
}

TEST(Ladder, StepVerdict) {
  const StepLimits limits;
  StepResult s{10000, 9999, 0.9995, 1.0, 0.1};
  EXPECT_TRUE(step_passes(s, limits));
  s.answered = 0.9989;
  EXPECT_FALSE(step_passes(s, limits));
  s.answered = 1;
  s.p99_ms = limits.p99_ms + 0.01;
  EXPECT_FALSE(step_passes(s, limits));
  s.p99_ms = 1;
  s.late_p99_ms = limits.late_ms + 0.01;
  EXPECT_FALSE(step_passes(s, limits));
}

TEST(Ladder, FindsTheCapacityRungAndTerminates) {
  const Ladder ladder;
  for (int cap = -1; cap < static_cast<int>(ladder.rungs); ++cap) {
    for (unsigned start : {0u, 14u, 79u}) {
      LadderSearch search(ladder, start, 8);
      std::set<unsigned> measured;
      while (const auto rung = search.next()) {
        ASSERT_TRUE(measured.insert(*rung).second) << "rung measured twice";
        ASSERT_LT(*rung, ladder.rungs);
        search.record(*rung, static_cast<int>(*rung) <= cap);
        ASSERT_LE(search.steps(), ladder.rungs / 8 + 8) << "search does not terminate";
      }
      // Capacity above the start is climbed to; below it, bisected down to.
      if (cap < 0) {
        EXPECT_FALSE(search.best().has_value());
      } else {
        ASSERT_TRUE(search.best().has_value()) << "cap " << cap << " start " << start;
        EXPECT_EQ(*search.best(), static_cast<unsigned>(cap));
      }
      // The failing rung the ceiling is attributed at sits right above it,
      // and was measured.
      if (cap + 1 < static_cast<int>(ladder.rungs)) {
        ASSERT_TRUE(search.first_failed().has_value());
        EXPECT_EQ(*search.first_failed(), static_cast<unsigned>(cap + 1));
        EXPECT_TRUE(measured.count(*search.first_failed()));
      } else {
        EXPECT_FALSE(search.first_failed().has_value());
      }
    }
  }
}

TEST(Ladder, RungsAreGeometric) {
  const Ladder ladder;
  EXPECT_DOUBLE_EQ(ladder.rate(0), ladder.base);
  EXPECT_NEAR(ladder.rate(1) / ladder.rate(0), ladder.ratio, 1e-12);
  EXPECT_GT(ladder.rate(ladder.rungs - 1), 200000);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const Span parent{0, 100};
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 100);
  // [10,20] and [15,30] overlap: 20 covered once; [90,120] clips to 10.
  EXPECT_DOUBLE_EQ(self_time(parent, {{10, 20}, {15, 30}, {90, 120}}), 70);
  EXPECT_DOUBLE_EQ(self_time(parent, {{-50, -10}}), 100);
  EXPECT_DOUBLE_EQ(self_time(parent, {{0, 100}, {20, 40}}), 0);
}

TEST(Spans, ReplayedChildrenLaidBackToBack) {
  const Span parent{5, 50};
  const std::vector<Span> kids = back_to_back(parent, {10, 20});
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_DOUBLE_EQ(kids[0].start_us, 5);
  EXPECT_DOUBLE_EQ(kids[0].end_us, 15);
  EXPECT_DOUBLE_EQ(kids[1].start_us, 15);
  EXPECT_DOUBLE_EQ(kids[1].end_us, 35);
  EXPECT_DOUBLE_EQ(self_time(parent, kids), 15);
  // Stages that outlast the client's view leave no negative self time.
  EXPECT_DOUBLE_EQ(self_time(parent, back_to_back(parent, {40, 40})), 0);
}
