#include "util/harmonic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace lcg {
namespace {

TEST(Harmonic, KnownValues) {
  EXPECT_DOUBLE_EQ(harmonic(0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1, 1.0), 1.0);
  EXPECT_NEAR(harmonic(4, 1.0), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  // s = 0: H^0_n = n.
  EXPECT_DOUBLE_EQ(harmonic(7, 0.0), 7.0);
  // s = 2 partial sums of the Basel series.
  EXPECT_NEAR(harmonic(3, 2.0), 1.0 + 0.25 + 1.0 / 9, 1e-12);
}

TEST(Harmonic, ConvergesForSGreaterOne) {
  // Theorem 9 uses H^s_n <= 2 for s >= 2; verify numerically.
  EXPECT_LE(harmonic(100000, 2.0), 2.0);
  EXPECT_LE(harmonic(100000, 3.0), 2.0);
}

TEST(HarmonicRange, MatchesDifference) {
  for (const double s : {0.0, 0.7, 1.0, 2.5}) {
    EXPECT_NEAR(harmonic_range(3, 9, s), harmonic(9, s) - harmonic(2, s),
                1e-12);
  }
  EXPECT_DOUBLE_EQ(harmonic_range(5, 4, 1.0), 0.0);  // empty range
  EXPECT_THROW((void)harmonic_range(0, 3, 1.0), precondition_error);
}

TEST(HarmonicCache, MatchesDirect) {
  harmonic_cache cache(1.5);
  for (std::size_t n : {1u, 2u, 10u, 100u, 3u}) {  // out-of-order growth
    EXPECT_NEAR(cache.prefix(n), harmonic(n, 1.5), 1e-12) << n;
  }
  EXPECT_NEAR(cache.range(4, 20), harmonic_range(4, 20, 1.5), 1e-12);
  EXPECT_DOUBLE_EQ(cache.range(7, 6), 0.0);
  EXPECT_DOUBLE_EQ(cache.prefix(0), 0.0);
}

TEST(HarmonicCache, ZeroExponentIsCount) {
  harmonic_cache cache(0.0);
  EXPECT_DOUBLE_EQ(cache.prefix(12), 12.0);
  EXPECT_DOUBLE_EQ(cache.range(3, 5), 3.0);
}

}  // namespace
}  // namespace lcg
