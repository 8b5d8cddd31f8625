#include "stats/p2_quantile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <random>
#include <stdexcept>
#include <vector>

#include "stats/percentile.h"

namespace headroom::stats {
namespace {

TEST(P2Quantile, RejectsInvalidQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, EmptyIsZero) {
  P2Quantile q(0.95);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.value(), 0.0);
}

TEST(P2Quantile, ExactForFewerThanFiveSamples) {
  P2Quantile q(0.5);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);
  // Exact median of {1,3} with interpolation = 2.
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
  q.add(5.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
}

TEST(P2Quantile, CountTracksAdds) {
  P2Quantile q(0.9);
  for (int i = 0; i < 20; ++i) q.add(static_cast<double>(i));
  EXPECT_EQ(q.count(), 20u);
}

TEST(P2Quantile, ResetRestoresEmptyState) {
  P2Quantile q(0.9);
  for (int i = 0; i < 100; ++i) q.add(static_cast<double>(i));
  q.reset();
  EXPECT_TRUE(q.empty());
  q.add(7.0);
  EXPECT_DOUBLE_EQ(q.value(), 7.0);
}

// Accuracy sweep across quantile levels and distributions: P² must land
// within a small relative error of the exact sample percentile.
struct P2Case {
  double q;
  int distribution;  // 0 uniform, 1 normal, 2 lognormal
};

// The row label, e.g. `q0.95_lognormal`: gtest_discover_tests names each
// CTest case after it. Without it the name is a byte dump of the struct,
// padding included, which differs between builds.
void PrintTo(const P2Case& c, std::ostream* os) {
  static constexpr const char* kNames[] = {"uniform", "normal", "lognormal"};
  *os << 'q' << c.q << '_' << kNames[c.distribution];
}

class P2AccuracySweep : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2AccuracySweep, TracksExactPercentile) {
  const P2Case c = GetParam();
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> uni(0.0, 100.0);
  std::normal_distribution<double> norm(50.0, 10.0);
  std::lognormal_distribution<double> logn(2.0, 0.6);

  P2Quantile estimator(c.q);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    double x = 0.0;
    switch (c.distribution) {
      case 0: x = uni(rng); break;
      case 1: x = norm(rng); break;
      default: x = logn(rng); break;
    }
    estimator.add(x);
    xs.push_back(x);
  }
  const double exact = percentile(xs, c.q * 100.0);
  EXPECT_NEAR(estimator.value(), exact, std::max(0.5, exact * 0.03))
      << "q=" << c.q << " dist=" << c.distribution;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, P2AccuracySweep,
    ::testing::Values(P2Case{0.05, 0}, P2Case{0.25, 0}, P2Case{0.5, 0},
                      P2Case{0.75, 0}, P2Case{0.95, 0}, P2Case{0.5, 1},
                      P2Case{0.95, 1}, P2Case{0.5, 2}, P2Case{0.95, 2},
                      P2Case{0.99, 2}));

TEST(P2Quantile, MonotoneIncreasingStreamTracksTail) {
  P2Quantile q(0.95);
  for (int i = 1; i <= 10000; ++i) q.add(static_cast<double>(i));
  // Exact P95 of 1..10000 is ~9500.
  EXPECT_NEAR(q.value(), 9500.0, 200.0);
}

TEST(P2Quantile, ConstantStreamIsExact) {
  P2Quantile q(0.95);
  for (int i = 0; i < 1000; ++i) q.add(8.25);
  EXPECT_DOUBLE_EQ(q.value(), 8.25);
}

TEST(P2Quantile, ConstantStreamsStayFiniteAcrossQuantiles) {
  // Regression: degenerate marker spacing in the parabolic update must not
  // divide by zero (NaN would poison every later estimate).
  for (const double quantile : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    P2Quantile q(quantile);
    for (int i = 0; i < 5000; ++i) q.add(3.5);
    EXPECT_TRUE(std::isfinite(q.value())) << "q=" << quantile;
    EXPECT_DOUBLE_EQ(q.value(), 3.5) << "q=" << quantile;
  }
}

TEST(P2Quantile, ConstantThenStepStreamStaysBracketed) {
  P2Quantile q(0.5);
  for (int i = 0; i < 500; ++i) q.add(5.0);
  for (int i = 0; i < 1500; ++i) q.add(6.0);
  EXPECT_TRUE(std::isfinite(q.value()));
  EXPECT_GE(q.value(), 5.0);
  EXPECT_LE(q.value(), 6.0);
}

TEST(P2Quantile, FewSamplePrefixIsKeptSorted) {
  // Regression: value() used to copy + sort the buffer on every call; the
  // prefix is now kept sorted by add(), and repeated const calls agree.
  P2Quantile q(0.5);
  q.add(9.0);
  q.add(1.0);
  q.add(5.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 4.0);  // exact median of {1,3,5,9}
  EXPECT_DOUBLE_EQ(q.value(), 4.0);  // and stable across calls
  q.add(7.0);                        // fifth sample switches to P² markers
  EXPECT_DOUBLE_EQ(q.value(), 5.0);
}

TEST(P2Quantile, TwoLevelStreamLandsOnUpperLevelForP95) {
  // 90% of mass at 1.0, 10% at 10.0: P95 must be near 10.
  P2Quantile q(0.95);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) q.add(u(rng) < 0.9 ? 1.0 : 10.0);
  EXPECT_GT(q.value(), 8.0);
}

}  // namespace
}  // namespace headroom::stats
