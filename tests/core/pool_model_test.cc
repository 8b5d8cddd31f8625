#include "core/pool_model.h"

#include <gtest/gtest.h>

#include <random>

namespace headroom::core {
namespace {

// Builds aligned scatters following pool B's published curves.
struct PoolBData {
  telemetry::AlignedPair cpu;
  telemetry::AlignedPair latency;
};

PoolBData pool_b_data(double noise_sigma = 0.0, std::uint64_t seed = 1,
                      double lo = 150.0, double hi = 650.0) {
  PoolBData d;
  std::mt19937_64 rng(seed);
  // Unit normal scaled by sigma: normal_distribution requires sigma > 0,
  // and sigma = 0 (noise-free data) is a valid input here.
  std::normal_distribution<double> unit(0.0, 1.0);
  const auto noise = [&](std::mt19937_64& g) { return unit(g) * noise_sigma; };
  for (int i = 0; i < 400; ++i) {
    const double rps =
        lo + (hi - lo) * static_cast<double>(i % 100) / 99.0;
    d.cpu.x.push_back(rps);
    d.cpu.y.push_back(0.028 * rps + 1.37 + noise(rng) * 0.1);
    d.latency.x.push_back(rps);
    d.latency.y.push_back(4.028e-5 * rps * rps - 0.031 * rps + 36.68 +
                          noise(rng));
  }
  return d;
}

TEST(PoolResponseModel, RecoversPaperCurves) {
  const PoolBData d = pool_b_data(0.3, 2);
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  EXPECT_NEAR(model.cpu_fit().slope, 0.028, 0.001);
  EXPECT_NEAR(model.cpu_fit().intercept, 1.37, 0.15);
  EXPECT_NEAR(model.latency_fit().coeffs[2], 4.028e-5, 2e-5);
  EXPECT_GT(model.latency_inlier_fraction(), 0.9);
}

TEST(PoolResponseModel, PredictionsEvaluateFits) {
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  EXPECT_NEAR(model.predict_cpu_pct(377.0), 0.028 * 377 + 1.37, 0.05);
  EXPECT_NEAR(model.predict_latency_ms(377.0),
              4.028e-5 * 377 * 377 - 0.031 * 377 + 36.68, 0.2);
}

TEST(PoolResponseModel, PaperPoolBForecast) {
  // §III-A1: 30% reduction at P95 load 377 RPS/server: forecast 31.5 ms
  // (and ~16.5% CPU) at the resulting 540 RPS/server.
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  const ReductionForecast f = model.forecast_reduction(377.0, 100, 70);
  EXPECT_NEAR(f.rps_per_server_after, 538.6, 1.0);
  EXPECT_NEAR(f.latency_after_ms, 31.5, 0.5);
  EXPECT_NEAR(f.cpu_after_pct, 16.5, 0.3);
  EXPECT_NEAR(f.latency_delta_ms(),
              f.latency_after_ms - f.latency_before_ms, 1e-12);
}

TEST(PoolResponseModel, ForecastValidatesCounts) {
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  EXPECT_THROW((void)model.forecast_reduction(377.0, 0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)model.forecast_reduction(377.0, 10, 0),
               std::invalid_argument);
}

TEST(PoolResponseModel, GrowingPoolLowersPerServerLoad) {
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  const ReductionForecast f = model.forecast_reduction(377.0, 70, 100);
  EXPECT_LT(f.rps_per_server_after, 377.0);
  EXPECT_LT(f.cpu_after_pct, f.cpu_before_pct);
}

TEST(PoolResponseModel, RansacSurvivesDeploymentContamination) {
  PoolBData d = pool_b_data(0.3, 3);
  // Contaminate 10% of latency samples with +25 ms deployment noise.
  for (std::size_t i = 0; i < d.latency.y.size(); i += 10) {
    d.latency.y[i] += 25.0;
  }
  PoolModelOptions opt;
  opt.ransac_threshold_ms = 2.0;
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency, opt);
  EXPECT_NEAR(model.predict_latency_ms(377.0), 30.7, 0.8);
  EXPECT_LT(model.latency_inlier_fraction(), 0.95);

  // Plain least squares (RANSAC off) is biased upward by the same data.
  PoolModelOptions plain;
  plain.ransac_threshold_ms = 0.0;
  const PoolResponseModel biased = PoolResponseModel::fit(d.cpu, d.latency, plain);
  EXPECT_GT(biased.predict_latency_ms(377.0),
            model.predict_latency_ms(377.0) + 1.0);
}

TEST(PoolResponseModel, MaxRpsWithinSloRespectsThreshold) {
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  const double max_rps = model.max_rps_within_slo(377.0, 33.5, 2.0);
  EXPECT_GT(max_rps, 377.0);
  EXPECT_LE(model.predict_latency_ms(max_rps), 33.5 + 1e-6);
  // Just beyond, the SLO is violated (unless capped by extrapolation).
  if (max_rps < 377.0 * 2.0 * 0.999) {
    EXPECT_GT(model.predict_latency_ms(max_rps * 1.02), 33.5);
  }
}

TEST(PoolResponseModel, MaxRpsCappedByExtrapolationLimit) {
  // A flat latency curve would allow unbounded extrapolation; the cap must
  // bite ("data is insufficient to forecast ... at even higher loads").
  telemetry::AlignedPair flat_cpu;
  telemetry::AlignedPair flat_latency;
  for (int i = 0; i < 50; ++i) {
    const double rps = 100.0 + i;
    flat_cpu.x.push_back(rps);
    flat_cpu.y.push_back(0.01 * rps);
    flat_latency.x.push_back(rps);
    flat_latency.y.push_back(20.0);
  }
  const PoolResponseModel model = PoolResponseModel::fit(flat_cpu, flat_latency);
  EXPECT_NEAR(model.max_rps_within_slo(100.0, 100.0, 1.5), 150.0, 2.0);
}

TEST(PoolResponseModel, MaxRpsAnchorsWhenAlreadyViolating) {
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  // SLO below current latency: no headroom at all.
  EXPECT_DOUBLE_EQ(model.max_rps_within_slo(377.0, 10.0), 377.0);
}

TEST(PoolResponseModel, MaxRpsRejectsBadAnchor) {
  const PoolBData d = pool_b_data();
  const PoolResponseModel model = PoolResponseModel::fit(d.cpu, d.latency);
  EXPECT_THROW((void)model.max_rps_within_slo(0.0, 30.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace headroom::core
