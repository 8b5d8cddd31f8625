#include "core/metric_validator.h"

#include <cmath>

#include "stats/correlation.h"
#include "stats/descriptive.h"

namespace headroom::core {

/// R² at/above which a correlated counter is kLinearNoisy.
constexpr double kNoisyRSquared = 0.40;
/// Coefficient of variation below which a counter is considered static.
constexpr double kStaticCv = 0.02;

std::string to_string(MetricVerdict verdict) {
  switch (verdict) {
    case MetricVerdict::kLinearTight: return "linear-tight";
    case MetricVerdict::kLinearNoisy: return "linear-noisy";
    case MetricVerdict::kUncorrelated: return "uncorrelated";
    case MetricVerdict::kStatic: return "static";
  }
  return "unknown";
}

MetricValidator::MetricValidator(ValidatorOptions options)
    : options_(options) {}

MetricAssessment MetricValidator::classify(const telemetry::AlignedPair& pair,
                                           telemetry::MetricKind resource) const {
  MetricAssessment a;
  a.resource = resource;
  a.samples = pair.x.size();
  if (pair.x.size() < 3) {
    a.verdict = MetricVerdict::kStatic;
    return a;
  }
  const stats::Summary ys = stats::summarize(pair.y);
  const double cv = ys.mean != 0.0 ? ys.stddev / std::fabs(ys.mean) : 0.0;
  if (cv < kStaticCv) {
    a.verdict = MetricVerdict::kStatic;
    return a;
  }
  a.fit = stats::fit_linear(pair.x, pair.y);
  a.pearson = stats::pearson(pair.x, pair.y);
  if (a.fit.r_squared >= options_.tight_r_squared) {
    a.verdict = MetricVerdict::kLinearTight;
  } else if (a.fit.r_squared >= kNoisyRSquared) {
    a.verdict = MetricVerdict::kLinearNoisy;
  } else {
    a.verdict = MetricVerdict::kUncorrelated;
  }
  return a;
}

MetricAssessment MetricValidator::assess(const telemetry::MetricStore& store,
                                         std::uint32_t datacenter,
                                         std::uint32_t pool,
                                         telemetry::MetricKind workload,
                                         telemetry::MetricKind resource) const {
  return classify(store.pool_scatter(datacenter, pool, workload, resource),
                  resource);
}

std::vector<MetricAssessment> MetricValidator::assess_all(
    const telemetry::MetricStore& store, std::uint32_t datacenter,
    std::uint32_t pool, telemetry::MetricKind workload,
    std::span<const telemetry::MetricKind> resources) const {
  std::vector<MetricAssessment> out;
  out.reserve(resources.size());
  for (telemetry::MetricKind r : resources) {
    out.push_back(assess(store, datacenter, pool, workload, r));
  }
  return out;
}

std::optional<MetricAssessment> MetricValidator::limiting_resource(
    std::span<const MetricAssessment> assessments) const {
  std::optional<MetricAssessment> best;
  for (const MetricAssessment& a : assessments) {
    if (a.verdict == MetricVerdict::kStatic) continue;
    if (a.fit.slope <= 0.0) continue;
    if (!best || a.fit.r_squared > best->fit.r_squared) best = a;
  }
  return best;
}

bool MetricValidator::workload_metric_valid(
    std::span<const MetricAssessment> assessments) const {
  const auto limiting = limiting_resource(assessments);
  return limiting.has_value() &&
         limiting->verdict == MetricVerdict::kLinearTight;
}

bool MetricValidator::split_improves(double combined_r_squared,
                                     std::span<const double> component_r_squared,
                                     double min_gain) {
  if (component_r_squared.empty()) return false;
  for (double r2 : component_r_squared) {
    if (r2 < combined_r_squared + min_gain) return false;
  }
  return true;
}

}  // namespace headroom::core
