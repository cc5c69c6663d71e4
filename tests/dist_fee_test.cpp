#include "dist/fee.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lcg::dist {
namespace {

TEST(FeeFunctions, ConstantAndLinear) {
  const constant_fee c(0.25);
  EXPECT_DOUBLE_EQ(c(0.0), 0.25);
  EXPECT_DOUBLE_EQ(c(100.0), 0.25);
  const linear_fee lin(1.0, 0.01);
  EXPECT_DOUBLE_EQ(lin(0.0), 1.0);
  EXPECT_DOUBLE_EQ(lin(50.0), 1.5);
  EXPECT_THROW(lin(-1.0), precondition_error);
  EXPECT_THROW(constant_fee(-0.1), precondition_error);
}

TEST(TxSizes, FixedSize) {
  const fixed_tx_size d(4.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.max_size(), 4.0);
  EXPECT_DOUBLE_EQ(d.cdf(3.9), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 1.0);
  rng gen(1);
  EXPECT_DOUBLE_EQ(d.sample(gen), 4.0);
}

TEST(TxSizes, UniformMoments) {
  const uniform_tx_size d(10.0);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(11.0), 1.0);
  EXPECT_DOUBLE_EQ(d.pdf(5.0), 0.1);
  EXPECT_DOUBLE_EQ(d.pdf(11.0), 0.0);
  rng gen(2);
  running_stats stats;
  for (int i = 0; i < 20000; ++i) stats.add(d.sample(gen));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
}

TEST(TxSizes, TruncatedExponentialConsistency) {
  const truncated_exponential_tx_size d(2.0, 10.0);
  EXPECT_DOUBLE_EQ(d.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(10.0), 1.0);
  // CDF should integrate the PDF (numeric check at several points).
  for (const double t : {1.0, 3.0, 7.0}) {
    double integral = 0.0;
    const int steps = 20000;
    for (int i = 0; i < steps; ++i) {
      const double x = t * (static_cast<double>(i) + 0.5) / steps;
      integral += d.pdf(x) * t / steps;
    }
    EXPECT_NEAR(integral, d.cdf(t), 1e-4) << t;
  }
  // Sample mean matches analytic truncated mean.
  rng gen(3);
  running_stats stats;
  for (int i = 0; i < 50000; ++i) stats.add(d.sample(gen));
  EXPECT_NEAR(stats.mean(), d.mean(), 0.05);
  // Truncated mean is below the untruncated mean.
  EXPECT_LT(d.mean(), 2.0);
}

TEST(AverageFee, ConstantFeeIsExact) {
  const constant_fee fee(0.7);
  const uniform_tx_size sizes(5.0);
  EXPECT_NEAR(average_fee(fee, sizes), 0.7, 1e-9);
}

TEST(AverageFee, LinearFeeUniformSizes) {
  // E[base + rate * t] = base + rate * T/2.
  const linear_fee fee(1.0, 0.2);
  const uniform_tx_size sizes(10.0);
  EXPECT_NEAR(average_fee(fee, sizes), 1.0 + 0.2 * 5.0, 1e-9);
}

TEST(AverageFee, FixedSizeShortCircuits) {
  const linear_fee fee(0.5, 0.1);
  const fixed_tx_size sizes(3.0);
  EXPECT_DOUBLE_EQ(average_fee(fee, sizes), 0.8);
}

TEST(AverageFee, TruncatedExponentialMatchesMean) {
  // For a linear fee, f_avg = base + rate * E[size].
  const truncated_exponential_tx_size sizes(1.5, 8.0);
  const linear_fee fee(0.2, 0.3);
  EXPECT_NEAR(average_fee(fee, sizes, 2048), 0.2 + 0.3 * sizes.mean(), 1e-5);
}

TEST(AverageFee, RejectsOddPanels) {
  const constant_fee fee(1.0);
  const uniform_tx_size sizes(1.0);
  EXPECT_THROW((void)average_fee(fee, sizes, 3), precondition_error);
}

}  // namespace
}  // namespace lcg::dist
