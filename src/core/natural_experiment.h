// Natural-experiment analysis (paper §II-B1, Figs. 4-6).
//
// Unplanned capacity events push pools far beyond their normal operating
// range — free data in exactly the region where extrapolation is otherwise
// untrustworthy. This module (1) detects event windows in a pool's
// workload series, (2) checks whether the pre-event response model still
// holds during the event (CPU linearity, Fig. 5), and (3) merges event
// observations into the fit to extend its valid range (Fig. 6's 4x point).
#pragma once

#include <cstdint>
#include <vector>

#include "core/pool_model.h"
#include "stats/linear_model.h"
#include "telemetry/metric_store.h"

namespace headroom::core {

struct EventWindow {
  telemetry::SimTime start = 0;
  telemetry::SimTime end = 0;
  double baseline_rps = 0.0;   ///< Typical load before the event.
  double peak_rps = 0.0;       ///< Peak load inside the event.
  [[nodiscard]] double increase_fraction() const noexcept {
    return baseline_rps > 0.0 ? peak_rps / baseline_rps - 1.0 : 0.0;
  }
};

/// How well the pre-event model explained the event data.
struct ModelHoldReport {
  stats::LinearFit pre_event_cpu_fit;
  double event_r_squared = 0.0;   ///< R² of pre-event fit on event samples.
  double max_abs_residual = 0.0;  ///< Worst CPU residual during the event.
  double max_relative_residual = 0.0;  ///< Relative to the predicted value.
  /// True when the pre-event model explains the event data: either a high
  /// R² or — for events spanning a narrow load range, where R² is a weak
  /// statistic — residuals that stay small relative to predictions.
  bool holds = false;
};

class NaturalExperimentAnalyzer {
 public:
  /// Detects elevated-load windows in the pool's per-server RPS series.
  [[nodiscard]] std::vector<EventWindow> detect(
      const telemetry::TimeSeries& rps) const;

  /// Fits the CPU model on non-event data only, then scores it on the
  /// event data (the Fig. 5 check). `holds` requires event R² >=
  /// `min_r_squared` or max relative residual <= `residual_tolerance`.
  [[nodiscard]] ModelHoldReport validate_cpu_model(
      const telemetry::TimeSeries& rps, const telemetry::TimeSeries& cpu,
      const EventWindow& event, double min_r_squared = 0.85,
      double residual_tolerance = 0.10) const;

  /// Refits the pool model over *all* data (normal + event), extending the
  /// trusted extrapolation range to the event peak.
  [[nodiscard]] PoolResponseModel fit_with_events(
      const telemetry::TimeSeries& rps, const telemetry::TimeSeries& cpu,
      const telemetry::TimeSeries& latency,
      const PoolModelOptions& options = {}) const;
};

}  // namespace headroom::core
