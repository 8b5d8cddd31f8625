#include "core/natural_experiment.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>

#include "stats/percentile.h"

namespace headroom::core {

/// A window is event-elevated when load exceeds its baseline by this factor.
constexpr double kElevationFactor = 1.30;
/// Seasonal period in windows (720 = one day of 120 s windows). When at
/// least one full period of history exists, the baseline for a window is
/// the median of the same-phase windows of previous periods — this is what
/// keeps ordinary diurnal peaks from being flagged as events.
constexpr std::size_t kPeriodWindows = 720;
/// Fallback trailing-median width while seasonal history is missing.
constexpr std::size_t kTrailingWindows = 30;
/// Events closer than this (windows) merge into one.
constexpr std::size_t kMergeGapWindows = 5;

std::vector<EventWindow> NaturalExperimentAnalyzer::detect(
    const telemetry::TimeSeries& rps) const {
  std::vector<EventWindow> events;
  if (rps.size() < 2 * kTrailingWindows) return events;
  const std::span<const double> values = rps.values();

  std::deque<double> trailing;
  bool in_event = false;
  EventWindow current;
  std::size_t quiet_streak = 0;

  auto baseline_for = [&](std::size_t i) -> double {
    // Seasonal baseline: median of the same-phase windows of prior periods.
    if (i >= kPeriodWindows) {
      std::vector<double> seasonal;
      for (std::size_t k = i; k >= kPeriodWindows;) {
        k -= kPeriodWindows;
        seasonal.push_back(values[k]);
        if (k < kPeriodWindows) break;
      }
      if (!seasonal.empty()) return stats::percentile(seasonal, 50.0);
    }
    // Fallback: trailing median of recent non-elevated windows.
    if (trailing.size() >= 8) {
      std::vector<double> copy(trailing.begin(), trailing.end());
      return stats::percentile(copy, 50.0);
    }
    return values[i];  // no history: never elevated
  };

  for (std::size_t i = 0; i < values.size(); ++i) {
    const double value = values[i];
    const double baseline = baseline_for(i);
    const bool elevated = value > baseline * kElevationFactor;

    if (elevated) {
      // Magnitude is the worst same-window ratio of value to its own
      // baseline (comparing a peak-hour value against a trough-hour
      // baseline would overstate the event).
      if (!in_event) {
        in_event = true;
        current = EventWindow{};
        current.start = rps.time_at(i);
        current.baseline_rps = baseline;
        current.peak_rps = value;
      } else if (baseline > 0.0 && value / baseline >
                                       current.peak_rps /
                                           std::max(current.baseline_rps, 1e-12)) {
        current.peak_rps = value;
        current.baseline_rps = baseline;
      }
      current.end = rps.time_at(i);
      quiet_streak = 0;
    } else {
      if (in_event) {
        ++quiet_streak;
        if (quiet_streak > kMergeGapWindows) {
          events.push_back(current);
          in_event = false;
        }
      }
      // Only non-elevated samples update the trailing fallback; an event
      // must not drag its own baseline upward.
      trailing.push_back(value);
      if (trailing.size() > kTrailingWindows) trailing.pop_front();
    }
  }
  if (in_event) events.push_back(current);
  return events;
}

ModelHoldReport NaturalExperimentAnalyzer::validate_cpu_model(
    const telemetry::TimeSeries& rps, const telemetry::TimeSeries& cpu,
    const EventWindow& event, double min_r_squared,
    double residual_tolerance) const {
  ModelHoldReport report;

  std::vector<double> pre_x;
  std::vector<double> pre_y;
  std::vector<double> ev_x;
  std::vector<double> ev_y;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < rps.size() && j < cpu.size()) {
    const telemetry::SimTime tr = rps.time_at(i);
    const telemetry::SimTime tc = cpu.time_at(j);
    if (tr < tc) {
      ++i;
    } else if (tc < tr) {
      ++j;
    } else {
      if (tr >= event.start && tr <= event.end) {
        ev_x.push_back(rps.value_at(i));
        ev_y.push_back(cpu.value_at(j));
      } else {
        pre_x.push_back(rps.value_at(i));
        pre_y.push_back(cpu.value_at(j));
      }
      ++i;
      ++j;
    }
  }

  report.pre_event_cpu_fit = stats::fit_linear(pre_x, pre_y);
  if (ev_x.empty()) return report;

  std::vector<double> predictions;
  predictions.reserve(ev_x.size());
  for (std::size_t k = 0; k < ev_x.size(); ++k) {
    const double pred = report.pre_event_cpu_fit.predict(ev_x[k]);
    predictions.push_back(pred);
    const double resid = std::fabs(ev_y[k] - pred);
    report.max_abs_residual = std::max(report.max_abs_residual, resid);
    if (pred > 1e-9) {
      report.max_relative_residual =
          std::max(report.max_relative_residual, resid / pred);
    }
  }
  report.event_r_squared = stats::r_squared(ev_y, predictions);
  report.holds = report.event_r_squared >= min_r_squared ||
                 report.max_relative_residual <= residual_tolerance;
  return report;
}

PoolResponseModel NaturalExperimentAnalyzer::fit_with_events(
    const telemetry::TimeSeries& rps, const telemetry::TimeSeries& cpu,
    const telemetry::TimeSeries& latency,
    const PoolModelOptions& options) const {
  return PoolResponseModel::fit(telemetry::align(rps, cpu),
                                telemetry::align(rps, latency), options);
}

}  // namespace headroom::core
