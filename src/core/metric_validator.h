// Step 1 (Measure): workload-metric validation.
//
// "We assume proper workload metrics have a tight linear correlation
// between units of work and increases in their primary limiting resource
// ... If the metric does not correlate well with the limiting resource then
// we likely failed to accurately capture the resources used to process a
// request. We use this validation in a feedback loop, until an accurate
// result is obtained." (paper §II-A1)
//
// The validator classifies every candidate resource counter against the
// workload metric (tight-linear / noisy-linear / uncorrelated / static),
// identifies the limiting resource, and supports the two fix-up moves the
// paper describes: splitting a composite workload metric into per-component
// metrics, and re-attributing background noise out of a resource counter.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stats/linear_model.h"
#include "telemetry/metric_store.h"

namespace headroom::core {

enum class MetricVerdict {
  kLinearTight,   ///< Usable for capacity planning as-is.
  kLinearNoisy,   ///< Correlated but contaminated; needs attribution work.
  kUncorrelated,  ///< Not driven by this workload (e.g. paging).
  kStatic,        ///< No variance; an anomaly detector, not a planner input
                  ///< (queue lengths / error counters in steady state).
};

[[nodiscard]] std::string to_string(MetricVerdict verdict);

struct MetricAssessment {
  telemetry::MetricKind resource{};
  MetricVerdict verdict = MetricVerdict::kUncorrelated;
  stats::LinearFit fit;    ///< resource = slope * workload + intercept.
  double pearson = 0.0;
  std::size_t samples = 0;
};

struct ValidatorOptions {
  double tight_r_squared = 0.90;   ///< At/above: kLinearTight.
};

class MetricValidator {
 public:
  explicit MetricValidator(ValidatorOptions options = {});

  /// Assesses one resource counter against the workload metric using the
  /// pool-scope series of (datacenter, pool).
  [[nodiscard]] MetricAssessment assess(const telemetry::MetricStore& store,
                                        std::uint32_t datacenter,
                                        std::uint32_t pool,
                                        telemetry::MetricKind workload,
                                        telemetry::MetricKind resource) const;

  /// Assesses every resource in `resources` (Fig. 2's six counters).
  [[nodiscard]] std::vector<MetricAssessment> assess_all(
      const telemetry::MetricStore& store, std::uint32_t datacenter,
      std::uint32_t pool, telemetry::MetricKind workload,
      std::span<const telemetry::MetricKind> resources) const;

  /// The limiting resource: the tightest linear fit with positive slope.
  [[nodiscard]] std::optional<MetricAssessment> limiting_resource(
      std::span<const MetricAssessment> assessments) const;

  /// The Step-1 gate: does a limiting resource with a tight linear
  /// relationship exist? If not, metrics need iteration.
  [[nodiscard]] bool workload_metric_valid(
      std::span<const MetricAssessment> assessments) const;

  /// The paper's split-metric fix-up check: a combined workload metric is
  /// mis-specified when per-component fits are each materially tighter than
  /// the combined fit (the two-table MemCached example in §II-A1).
  [[nodiscard]] static bool split_improves(double combined_r_squared,
                                           std::span<const double> component_r_squared,
                                           double min_gain = 0.05);

  [[nodiscard]] const ValidatorOptions& options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] MetricAssessment classify(const telemetry::AlignedPair& pair,
                                          telemetry::MetricKind resource) const;

  ValidatorOptions options_;
};

}  // namespace headroom::core
