#include "core/live_feed_backend.h"

#include <stdexcept>
#include <utility>

#include "core/degradation.h"
#include "telemetry/csv.h"

namespace headroom::core {

namespace {

using telemetry::MetricKind;
using telemetry::SimTime;

}  // namespace

LiveFeedBackend::LiveFeedBackend(const telemetry::MetricStore* store,
                                 Options options)
    : store_(store), options_(std::move(options)),
      serving_(options_.serving), cursor_(options_.start) {
  if (store_ == nullptr) {
    throw std::invalid_argument(options_.label + ": null store");
  }
  if (options_.window_seconds <= 0) {
    throw std::invalid_argument(options_.label + ": window must be positive");
  }
  if (options_.pool_size == 0) {
    throw std::invalid_argument(options_.label + ": empty pool");
  }
  if (serving_ == 0 || serving_ > options_.pool_size) {
    throw std::invalid_argument(options_.label +
                                ": serving count out of range");
  }
  if (options_.sealed) {
    const telemetry::TimeSeries& rps = store_->pool_series(
        options_.datacenter, options_.pool, MetricKind::kRequestsPerSecond);
    if (rps.empty()) {
      throw std::invalid_argument(
          options_.label + ": trace has no workload series for pool (" +
          std::to_string(options_.datacenter) + ", " +
          std::to_string(options_.pool) + ")");
    }
  }
}

SimTime LiveFeedBackend::feed_end() const {
  const telemetry::TimeSeries& rps = store_->pool_series(
      options_.datacenter, options_.pool, MetricKind::kRequestsPerSecond);
  if (rps.empty()) return options_.start;
  return rps.time_at(rps.size() - 1) + options_.window_seconds;
}

void LiveFeedBackend::set_serving_count(std::size_t servers) {
  if (servers == 0 || servers > options_.pool_size) {
    throw std::invalid_argument(options_.label +
                                ": serving count out of range");
  }
  if (options_.validate_serving) {
    // Recorded active servers in the first window the new count applies
    // to. The final planner call (adopting the recommendation) lands past
    // the recorded windows; with nothing on record there is nothing to
    // check.
    const auto recorded = engine().raw_window(
        {options_.datacenter, options_.pool,
         telemetry::SeriesKey::kPoolScope, MetricKind::kActiveServers},
        cursor_, cursor_ + options_.window_seconds);
    if (recorded.size() > 0 &&
        recorded.value_at(0) > static_cast<double>(servers) + 1e-9) {
      throw std::runtime_error(
          options_.label + ": replay diverged from the trace at t=" +
          std::to_string(cursor_) + ": requested " + std::to_string(servers) +
          " serving servers but the trace recorded " +
          telemetry::format_double(recorded.value_at(0)) + " active");
    }
  }
  serving_ = servers;
  if (serving_hook_) serving_hook_(servers);
}

LiveFeedBackend::Span LiveFeedBackend::span_for(SimTime duration) const {
  if (duration <= 0) {
    throw std::invalid_argument(options_.label +
                                ": observation duration must be positive");
  }
  // Whole windows, like FleetSimulator::run_until: a duration that is not
  // a window multiple overshoots to the next boundary, and the cursor must
  // land there or every later observation would be shifted vs the feed.
  const auto expected = static_cast<std::size_t>(
      (duration + options_.window_seconds - 1) / options_.window_seconds);
  return {cursor_ + static_cast<SimTime>(expected) * options_.window_seconds,
          expected};
}

std::size_t LiveFeedBackend::covered_windows(SimTime to) const {
  return engine()
      .raw_window({options_.datacenter, options_.pool,
                   telemetry::SeriesKey::kPoolScope,
                   MetricKind::kRequestsPerSecond},
                  cursor_, to)
      .size();
}

void LiveFeedBackend::exhausted(const Span& span) const {
  const char* const noun = options_.sealed ? "trace" : "feed";
  const char* const tail = options_.sealed ? "recording" : "feed";
  throw std::runtime_error(
      options_.label + ": " + noun + " exhausted at t=" +
      std::to_string(cursor_) + ": needed " + std::to_string(span.expected) +
      " windows up to t=" + std::to_string(span.to) + " but the " + noun +
      " holds " + std::to_string(covered_windows(span.to)) + " (" + tail +
      " ends at t=" + std::to_string(feed_end()) + ")");
}

std::optional<ExperimentObservations> LiveFeedBackend::try_observe(
    SimTime duration) {
  const Span span = span_for(duration);
  if (covered_windows(span.to) < span.expected) {
    if (options_.sealed) exhausted(span);  // a recording cannot grow
    return std::nullopt;
  }
  const SimTime from = cursor_;
  cursor_ = span.to;
  if (monitor_ != nullptr) {
    if (const DegradationTracker* pool =
            monitor_->find(options_.datacenter, options_.pool)) {
      for (SimTime g = from; g < span.to; g += options_.window_seconds) {
        if (pool->window_healed(g)) ++healed_observed_;
      }
    }
  }
  return observations_between(engine(), options_.datacenter, options_.pool,
                              from, span.to);
}

ExperimentObservations LiveFeedBackend::observe(SimTime duration) {
  std::optional<ExperimentObservations> ready = try_observe(duration);
  if (ready) return *std::move(ready);
  exhausted(span_for(duration));
}

}  // namespace headroom::core
