// Append-only-store implementation of PoolExperimentBackend.
//
// The paper's planner treats the service as a black box observed through
// counters (§II-B2). This backend makes that literal for both replay and
// continuous operation: the "service" is a MetricStore of windowed series,
// and observe() hands out consecutive window slices of it. The store may be
// a sealed recording (a re-ingested CSV trace — replay semantics: reading
// past the end throws) or a live feed that another component appends to
// window-by-window (serve mode: reading past the end is merely *pending*,
// reported through try_observe(); the caller appends more and retries).
//
// Observations come from observations_between() — the same single
// definition of "an observation" the simulator backend uses — so a replayed
// or streamed pipeline sees bit-identical vectors to the batch run that
// produced the data.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/experiment_backend.h"

namespace headroom::core {

class HealthMonitor;

class LiveFeedBackend final : public PoolExperimentBackend {
 public:
  struct Options {
    std::uint32_t datacenter = 0;
    std::uint32_t pool = 0;
    std::size_t pool_size = 0;     ///< Configured servers of the pool.
    std::size_t serving = 0;       ///< Serving count at `start`.
    telemetry::SimTime start = 0;  ///< Feed cursor start (inclusive).
    telemetry::SimTime window_seconds = 120;
    /// A sealed feed is a complete recording: it must already hold the
    /// pool's workload series, and observe() or try_observe() past its end
    /// throws. A live feed treats missing windows as not-yet-arrived:
    /// try_observe() reports pending, and blocking observe() throws "feed
    /// exhausted" (nothing can append while it waits).
    bool sealed = false;
    /// Validate set_serving_count() against the recorded active-servers
    /// column at the cursor (replay-divergence detection). Feeds whose
    /// serving changes are forwarded through the serving hook to the
    /// system that *produces* that column turn this off.
    bool validate_serving = true;
    /// Diagnostic prefix for exception messages.
    std::string label = "LiveFeedBackend";
  };

  /// Notified after a serving-count change is adopted — the live-feed
  /// analogue of the simulator applying the experiment control variable.
  using ServingHook = std::function<void(std::size_t servers)>;

  /// `store` must outlive the backend. Throws std::invalid_argument for an
  /// underspecified feed (and, when sealed, for a missing workload series).
  LiveFeedBackend(const telemetry::MetricStore* store, Options options);

  [[nodiscard]] std::size_t pool_size() const override {
    return options_.pool_size;
  }
  [[nodiscard]] std::size_t serving_count() const override { return serving_; }

  /// Validates `servers` against the recorded active-servers column at the
  /// cursor when `validate_serving` is set (more active servers on record
  /// than the requested count means the replay diverged from the recorded
  /// experiment; fewer is legal — maintenance takes rotation members
  /// offline), adopts it, and invokes the serving hook. Throws
  /// std::invalid_argument out of [1, pool_size()], std::runtime_error on
  /// divergence (before the hook runs; a rejected count is never adopted).
  void set_serving_count(std::size_t servers) override;

  /// Returns the feed windows covering `duration` seconds from the cursor
  /// and advances the cursor. Mirrors the simulator's stepping grid: the
  /// fleet steps whole windows and overshoots a non-multiple horizon
  /// (run_until), so the observed span is ceil(duration / window) windows
  /// and the cursor lands on the next window boundary. When the feed does
  /// not yet cover the span it throws std::runtime_error: "trace
  /// exhausted" on a sealed feed, "feed exhausted" on a live one (whose
  /// callers use try_observe() instead).
  ExperimentObservations observe(telemetry::SimTime duration) override;

  /// Non-blocking observe: on a live feed, std::nullopt (cursor untouched,
  /// nothing thrown) while the span is not yet covered. A sealed feed
  /// cannot grow, so there it throws "trace exhausted" as observe() does,
  /// cursor untouched. The incremental planner's path.
  std::optional<ExperimentObservations> try_observe(
      telemetry::SimTime duration) override;

  void set_serving_hook(ServingHook hook) { serving_hook_ = std::move(hook); }

  /// Attaches the degradation layer's monitor (must outlive the backend).
  /// Observations then audit how many of their windows carry healed
  /// (gap-fill) workload samples — the RSM's visibility into how much of
  /// its evidence is synthetic.
  void set_health_monitor(const HealthMonitor* monitor) noexcept {
    monitor_ = monitor;
  }
  /// Healed windows that have flowed into completed observations.
  [[nodiscard]] std::size_t healed_windows_observed() const noexcept {
    return healed_observed_;
  }

  /// Current feed position (start of the next unobserved window).
  [[nodiscard]] telemetry::SimTime cursor() const noexcept { return cursor_; }
  /// End of the workload series currently in the feed (exclusive); the
  /// cursor start when no workload has arrived yet. Grows as a live feed
  /// is appended to.
  [[nodiscard]] telemetry::SimTime feed_end() const;

 private:
  /// Cursor-aligned span of `expected` whole windows ending at `to`.
  struct Span {
    telemetry::SimTime to = 0;
    std::size_t expected = 0;
  };
  [[nodiscard]] Span span_for(telemetry::SimTime duration) const;
  /// Windows of the workload series currently inside [cursor, to).
  [[nodiscard]] std::size_t covered_windows(telemetry::SimTime to) const;
  [[noreturn]] void exhausted(const Span& span) const;
  /// All store reads route through the query layer; the engine is a
  /// pointer-sized view, built per read after the ctor validated store_.
  [[nodiscard]] query::QueryEngine engine() const {
    return query::QueryEngine(store_);
  }

  const telemetry::MetricStore* store_;
  Options options_;
  ServingHook serving_hook_;
  const HealthMonitor* monitor_ = nullptr;
  std::size_t healed_observed_ = 0;
  std::size_t serving_ = 0;
  telemetry::SimTime cursor_ = 0;
};

}  // namespace headroom::core
