// Read path over the metric store's resident raw windows.
//
// Consumers read telemetry one window or one contiguous range at a time:
// the serve-mode report path wants one window, the RSM planner wants a
// day of windows, the capacity forecaster replays a pool's history window
// by window. All of them read raw samples still inside the store's
// retention, so every answer is bit-identical to slicing the series
// directly — the golden-pinned paths (planner observations, serve reports,
// plan forecasts) route through this engine and stay byte-for-byte.
//
// The store evicts raw samples strictly below `evicted_before()`, so raw
// data covers [evicted_before, watermark]. Nothing older survives: a read
// of an evicted window finds nothing, exactly like a dark window.
#pragma once

#include <optional>

#include "telemetry/metric_store.h"

namespace headroom::query {

class QueryEngine {
 public:
  /// `store` must outlive the engine.
  explicit QueryEngine(const telemetry::MetricStore* store);

  /// True when [from, to) lies entirely inside raw coverage for every
  /// series (eviction is store-global, so this is key-independent).
  [[nodiscard]] bool raw_covers(telemetry::SimTime from,
                                telemetry::SimTime to) const noexcept;

  /// Zero-copy slice of a series' resident samples in [from, to).
  [[nodiscard]] telemetry::SeriesView raw_window(
      const telemetry::SeriesKey& key, telemetry::SimTime from,
      telemetry::SimTime to) const;

  /// Value of the single window starting exactly at `t`, bit-identical to
  /// slicing the series. nullopt when the window is dark or evicted.
  [[nodiscard]] std::optional<double> window_value(
      const telemetry::SeriesKey& key, telemetry::SimTime t) const;

  [[nodiscard]] const telemetry::MetricStore& store() const noexcept {
    return *store_;
  }

 private:
  const telemetry::MetricStore* store_;
};

}  // namespace headroom::query
