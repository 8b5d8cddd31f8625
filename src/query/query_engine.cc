#include "query/query_engine.h"

#include <stdexcept>

namespace headroom::query {

using telemetry::SeriesView;
using telemetry::SimTime;

QueryEngine::QueryEngine(const telemetry::MetricStore* store) : store_(store) {
  if (store == nullptr) {
    throw std::invalid_argument("QueryEngine: null store");
  }
}

bool QueryEngine::raw_covers(SimTime from, SimTime to) const noexcept {
  return to >= from && from >= store_->evicted_before();
}

SeriesView QueryEngine::raw_window(const telemetry::SeriesKey& key,
                                   SimTime from, SimTime to) const {
  return store_->series(key).slice(from, to);
}

std::optional<double> QueryEngine::window_value(
    const telemetry::SeriesKey& key, SimTime t) const {
  // Checked against the store-wide cutoff, not the series: a series created
  // after the last sweep can still hold a window older than the cutoff.
  if (!raw_covers(t, t + 1)) return std::nullopt;
  const SeriesView view = store_->series(key).slice(t, t + 1);
  if (view.empty()) return std::nullopt;
  return view.value_at(0);
}

}  // namespace headroom::query
