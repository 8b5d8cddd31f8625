#include "core/metric_validator.h"

#include <gtest/gtest.h>

#include <random>

namespace headroom::core {
namespace {

using telemetry::MetricKind;
using telemetry::MetricStore;
using telemetry::SeriesKey;
using telemetry::SimTime;

// Builds pool-scope series where `resource = slope*workload + noise`.
void fill_pool(MetricStore* store, MetricKind resource, double slope,
               double intercept, double noise_sigma, std::uint64_t seed,
               std::size_t windows = 300) {
  std::mt19937_64 rng(seed);
  // Unit normal scaled by sigma: normal_distribution requires sigma > 0,
  // and sigma = 0 (noise-free data) is a valid input here.
  std::normal_distribution<double> unit(0.0, 1.0);
  const auto noise = [&](std::mt19937_64& g) { return unit(g) * noise_sigma; };
  const SeriesKey wkey{0, 0, SeriesKey::kPoolScope,
                       MetricKind::kRequestsPerSecond};
  const SeriesKey rkey{0, 0, SeriesKey::kPoolScope, resource};
  const bool workload_exists = store->contains(wkey);
  for (std::size_t i = 0; i < windows; ++i) {
    const auto t = static_cast<SimTime>(i) * 120;
    const double rps = 100.0 + 300.0 * (static_cast<double>(i % 100) / 100.0);
    if (!workload_exists) store->record(wkey, t, rps);
    store->record(rkey, t, slope * rps + intercept + noise(rng));
  }
}

TEST(MetricValidator, TightLinearResourceDetected) {
  MetricStore store;
  fill_pool(&store, MetricKind::kCpuPercentAttributed, 0.028, 1.37, 0.15, 1);
  const MetricValidator validator;
  const MetricAssessment a =
      validator.assess(store, 0, 0, MetricKind::kRequestsPerSecond,
                       MetricKind::kCpuPercentAttributed);
  EXPECT_EQ(a.verdict, MetricVerdict::kLinearTight);
  EXPECT_NEAR(a.fit.slope, 0.028, 0.003);
  EXPECT_GT(a.pearson, 0.95);
}

TEST(MetricValidator, NoisyLinearResourceDetected) {
  MetricStore store;
  fill_pool(&store, MetricKind::kNetworkBytesPerSecond, 50.0, 0.0, 4200.0, 2);
  const MetricValidator validator;
  const MetricAssessment a =
      validator.assess(store, 0, 0, MetricKind::kRequestsPerSecond,
                       MetricKind::kNetworkBytesPerSecond);
  EXPECT_EQ(a.verdict, MetricVerdict::kLinearNoisy);
}

TEST(MetricValidator, UncorrelatedResourceDetected) {
  MetricStore store;
  fill_pool(&store, MetricKind::kMemoryPagesPerSecond, 0.0, 3000.0, 2000.0, 3);
  const MetricValidator validator;
  const MetricAssessment a =
      validator.assess(store, 0, 0, MetricKind::kRequestsPerSecond,
                       MetricKind::kMemoryPagesPerSecond);
  EXPECT_EQ(a.verdict, MetricVerdict::kUncorrelated);
}

TEST(MetricValidator, StaticCounterDetected) {
  MetricStore store;
  fill_pool(&store, MetricKind::kDiskQueueLength, 0.0, 5.0, 0.0, 4);
  const MetricValidator validator;
  const MetricAssessment a =
      validator.assess(store, 0, 0, MetricKind::kRequestsPerSecond,
                       MetricKind::kDiskQueueLength);
  EXPECT_EQ(a.verdict, MetricVerdict::kStatic);
}

TEST(MetricValidator, EmptySeriesIsStatic) {
  MetricStore store;
  const MetricValidator validator;
  const MetricAssessment a =
      validator.assess(store, 0, 0, MetricKind::kRequestsPerSecond,
                       MetricKind::kCpuPercentTotal);
  EXPECT_EQ(a.verdict, MetricVerdict::kStatic);
  EXPECT_EQ(a.samples, 0u);
}

TEST(MetricValidator, LimitingResourceIsTightestPositiveSlope) {
  MetricStore store;
  fill_pool(&store, MetricKind::kCpuPercentAttributed, 0.03, 1.0, 0.1, 5);
  fill_pool(&store, MetricKind::kNetworkBytesPerSecond, 40.0, 0.0, 5000.0, 6);
  fill_pool(&store, MetricKind::kMemoryPagesPerSecond, 0.0, 2000.0, 1500.0, 7);
  const MetricValidator validator;
  const MetricKind resources[] = {MetricKind::kCpuPercentAttributed,
                                  MetricKind::kNetworkBytesPerSecond,
                                  MetricKind::kMemoryPagesPerSecond};
  const auto assessments = validator.assess_all(
      store, 0, 0, MetricKind::kRequestsPerSecond, resources);
  const auto limiting = validator.limiting_resource(assessments);
  ASSERT_TRUE(limiting.has_value());
  EXPECT_EQ(limiting->resource, MetricKind::kCpuPercentAttributed);
  EXPECT_TRUE(validator.workload_metric_valid(assessments));
}

TEST(MetricValidator, NegativeSlopeIsNotLimiting) {
  MetricStore store;
  fill_pool(&store, MetricKind::kDiskReadBytesPerSecond, -10.0, 10000.0, 1.0, 8);
  const MetricValidator validator;
  const auto assessments = validator.assess_all(
      store, 0, 0, MetricKind::kRequestsPerSecond,
      std::vector<MetricKind>{MetricKind::kDiskReadBytesPerSecond});
  EXPECT_FALSE(validator.limiting_resource(assessments).has_value());
  EXPECT_FALSE(validator.workload_metric_valid(assessments));
}

TEST(MetricValidator, InvalidWhenOnlyNoisyRelationship) {
  MetricStore store;
  fill_pool(&store, MetricKind::kCpuPercentTotal, 0.03, 1.0, 3.0, 9);
  const MetricValidator validator;
  const auto assessments = validator.assess_all(
      store, 0, 0, MetricKind::kRequestsPerSecond,
      std::vector<MetricKind>{MetricKind::kCpuPercentTotal});
  // Noisy linear: the feedback loop must keep iterating on attribution.
  EXPECT_FALSE(validator.workload_metric_valid(assessments));
}

TEST(MetricValidator, SplitImprovesRequiresAllComponentsBetter) {
  // The MemCached two-tables example: per-table metrics both fit better.
  const double components_good[] = {0.97, 0.95};
  EXPECT_TRUE(MetricValidator::split_improves(0.6, components_good));
  const double components_mixed[] = {0.97, 0.61};
  EXPECT_FALSE(MetricValidator::split_improves(0.6, components_mixed));
  EXPECT_FALSE(MetricValidator::split_improves(0.6, {}));
}

TEST(MetricValidator, ThresholdsAreConfigurable) {
  MetricStore store;
  fill_pool(&store, MetricKind::kCpuPercentTotal, 0.03, 1.0, 1.2, 10);
  ValidatorOptions strict;
  strict.tight_r_squared = 0.999;
  ValidatorOptions lax;
  lax.tight_r_squared = 0.5;
  const MetricAssessment strict_a =
      MetricValidator(strict).assess(store, 0, 0,
                                     MetricKind::kRequestsPerSecond,
                                     MetricKind::kCpuPercentTotal);
  const MetricAssessment lax_a =
      MetricValidator(lax).assess(store, 0, 0, MetricKind::kRequestsPerSecond,
                                  MetricKind::kCpuPercentTotal);
  EXPECT_NE(strict_a.verdict, MetricVerdict::kLinearTight);
  EXPECT_EQ(lax_a.verdict, MetricVerdict::kLinearTight);
}

TEST(MetricVerdictToString, AllNamed) {
  EXPECT_EQ(to_string(MetricVerdict::kLinearTight), "linear-tight");
  EXPECT_EQ(to_string(MetricVerdict::kLinearNoisy), "linear-noisy");
  EXPECT_EQ(to_string(MetricVerdict::kUncorrelated), "uncorrelated");
  EXPECT_EQ(to_string(MetricVerdict::kStatic), "static");
}

}  // namespace
}  // namespace headroom::core
