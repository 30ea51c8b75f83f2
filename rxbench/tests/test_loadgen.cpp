// Tests of the benchmark's own arithmetic: nearest-rank percentiles, the
// open-loop schedule and its due-time latency and lag, and the metric-name
// rules BENCHMARK.json is held to.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "loadgen.h"

namespace rxbench {
namespace {

TEST(NearestRank, MatchesTheDefinition) {
  // 10 samples: p50 is rank 5, p90 rank 9, p100 rank 10.
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(nearest_rank(v, 50), 5);
  EXPECT_EQ(nearest_rank(v, 90), 9);
  EXPECT_EQ(nearest_rank(v, 91), 10);
  EXPECT_EQ(nearest_rank(v, 100), 10);
  EXPECT_EQ(nearest_rank(v, 1), 1);
  EXPECT_EQ(median(v), 5);
}

TEST(NearestRank, AlwaysReturnsASample) {
  const std::vector<double> v = {3.5, 1.25};
  EXPECT_EQ(nearest_rank(v, 50), 1.25);  // rank ceil(1.0) = 1
  EXPECT_EQ(nearest_rank(v, 51), 3.5);   // rank ceil(1.02) = 2
  EXPECT_EQ(nearest_rank({7.0}, 90), 7.0);
  EXPECT_TRUE(std::isnan(nearest_rank({}, 50)));
}

TEST(GroupedPercentile, WholeSampleWhenShort) {
  // 99 samples make one group: the plain nearest-rank percentile.
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_EQ(grouped_percentile(v, 90), nearest_rank(v, 90));
  EXPECT_TRUE(std::isnan(grouped_percentile({}, 50)));
}

TEST(GroupedPercentile, MedianOfConsecutiveGroups) {
  // 150 samples make three groups of 50 (in order). The middle group is a
  // slow stretch; the median of the three group p90s ignores it.
  std::vector<double> v;
  for (int g = 0; g < 3; ++g) {
    for (int i = 1; i <= 50; ++i) v.push_back(g == 1 ? 1000.0 + i : g * 0.5 + i);
  }
  // Group p90s (rank 45 of 50): 45, 1045, 46 -> median 46.
  EXPECT_EQ(grouped_percentile(v, 90), 46.0);
  EXPECT_EQ(nearest_rank(v, 90), 1035.0);  // the pooled p90 would not
  // At most five groups: 1000 samples still split five ways.
  std::vector<double> w(1000, 2.0);
  EXPECT_EQ(grouped_percentile(w, 90), 2.0);
}

TEST(PoissonSchedule, SeededAndInWindow) {
  const std::vector<double> a = poisson_schedule(42, 20.0, 30.0);
  const std::vector<double> b = poisson_schedule(42, 20.0, 30.0);
  const std::vector<double> c = poisson_schedule(43, 20.0, 30.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 30.0);
  // Conditioned on the expected count: exactly rate x seconds arrivals.
  EXPECT_EQ(a.size(), 600u);
  EXPECT_EQ(c.size(), 600u);
  EXPECT_EQ(poisson_schedule(5, 2.5, 3.0).size(), 8u);  // round(7.5)
  EXPECT_TRUE(poisson_schedule(1, 0.0, 10.0).empty());
}

TEST(OpenLoopTiming, LatencyRunsFromTheDueTime) {
  // The generator sent 30 ms late and the answer came 100 ms after sending:
  // the request waited 130 ms from when it was due.
  OpenLoopTiming t{1.000, 1.030, 1.130};
  EXPECT_NEAR(t.latency(), 0.130, 1e-12);
  EXPECT_NEAR(t.lag(), 0.030, 1e-12);
  // Sending early (clock granularity) never counts as negative lag.
  OpenLoopTiming early{2.0, 1.9999, 2.05};
  EXPECT_EQ(early.lag(), 0.0);
  EXPECT_NEAR(early.latency(), 0.05, 1e-12);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("latency_p50_ms"));
  EXPECT_TRUE(valid_metric_name("core.reconstruct_ms.n1"));
  EXPECT_TRUE(valid_metric_name("nn.gemm_gflops.u16c32"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'u')));
}

TEST(SeededRng, Deterministic) {
  SeededRng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    const double u = a.uniform();
    EXPECT_EQ(u, b.uniform());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_LT(SeededRng(9).below(5), 5u);
}

}  // namespace
}  // namespace rxbench
