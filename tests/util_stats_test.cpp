#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace lcg {
namespace {

TEST(RunningStats, Empty) {
  running_stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  running_stats s;
  for (const double x : xs) s.add(x);

  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(s.min(), -2.0);
  EXPECT_EQ(s.max(), 7.5);
  EXPECT_NEAR(s.sum(), mean * static_cast<double>(xs.size()), 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  rng gen(4);
  running_stats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = gen.uniform_real(-5.0, 5.0);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  running_stats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.mean(), 2.0, 1e-12);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 2.0, 1e-12);
}

TEST(Histogram, BucketsAndClamping) {
  histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to bucket 0
  h.add(0.5);    // bucket 0
  h.add(3.0);    // bucket 1
  h.add(9.99);   // bucket 4
  h.add(10.0);   // clamps to bucket 4
  h.add(100.0);  // clamps to bucket 4
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.count(4), 3u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(1), 4.0);
}

TEST(Histogram, QuantileApproximatesUniform) {
  histogram h(0.0, 1.0, 100);
  rng gen(17);
  for (int i = 0; i < 100000; ++i) h.add(gen.uniform01());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(histogram(1.0, 1.0, 4), precondition_error);
  EXPECT_THROW(histogram(0.0, 1.0, 0), precondition_error);
}

TEST(Quantile, ExactValues) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_THROW((void)quantile({}, 0.5), precondition_error);
}

}  // namespace
}  // namespace lcg
