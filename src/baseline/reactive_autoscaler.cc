#include "baseline/reactive_autoscaler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace headroom::baseline {

namespace {

/// Where start() places the thresholds, as fractions of the span between
/// the zero-load CPU and the surface-implied SLO operating CPU.
constexpr double kTargetFraction = 0.80;
constexpr double kScaleOutFraction = 0.90;
constexpr double kScaleInFraction = 0.55;

}  // namespace

ReactiveAutoscaler::ReactiveAutoscaler(AutoscalerOptions options)
    : options_(options) {
  if (options_.min_servers == 0 ||
      options_.min_servers > options_.max_servers) {
    throw std::invalid_argument("ReactiveAutoscaler: bad server bounds");
  }
  if (options_.control_interval_s <= 0) {
    throw std::invalid_argument("ReactiveAutoscaler: bad control interval");
  }
  if (options_.provision_lag_s < 0 || options_.drain_lag_s < 0) {
    throw std::invalid_argument("ReactiveAutoscaler: negative lag");
  }
  if (options_.max_step_fraction <= 0.0 || options_.max_step_fraction >= 1.0) {
    throw std::invalid_argument(
        "ReactiveAutoscaler: max_step_fraction must be in (0, 1)");
  }
  if (options_.scale_in_threshold >= options_.scale_out_threshold) {
    throw std::invalid_argument(
        "ReactiveAutoscaler: scale_in_threshold must be below "
        "scale_out_threshold");
  }
  if (options_.cpu_per_rps <= 0.0) {
    throw std::invalid_argument(
        "ReactiveAutoscaler: cpu_per_rps must be positive");
  }
  if (options_.target_cpu_pct <= options_.cpu_base) {
    throw std::invalid_argument(
        "ReactiveAutoscaler: target_cpu_pct must exceed cpu_base");
  }
}

std::size_t ReactiveAutoscaler::decide(double total_rps, double cpu_pct,
                                       std::size_t committed_target) const {
  if (cpu_pct <= options_.scale_out_threshold &&
      cpu_pct >= options_.scale_in_threshold) {
    return committed_target;
  }
  // Servers needed to hold per-server CPU at the target. The constructor
  // guarantees target_cpu_pct > cpu_base, so the division is positive.
  const double desired_raw = options_.cpu_per_rps * total_rps /
                             (options_.target_cpu_pct - options_.cpu_base);
  const double damped = std::clamp(
      desired_raw,
      static_cast<double>(committed_target) *
          (1.0 - options_.max_step_fraction),
      static_cast<double>(committed_target) *
          (1.0 + options_.max_step_fraction));
  return std::clamp(static_cast<std::size_t>(std::max(1.0, std::ceil(damped))),
                    options_.min_servers, options_.max_servers);
}

void ReactiveAutoscaler::start(const core::PlannerContext& context,
                               std::size_t initial_serving) {
  if (context.model == nullptr) {
    throw std::invalid_argument(
        "ReactiveAutoscaler::start: null response model");
  }
  // Every value set here satisfies the constructor's checks by
  // construction: the slope is floored positive, the span is at least 1 so
  // the thresholds are ordered above cpu_base, and min_servers >= 1.
  AutoscalerOptions& opt = options_;
  // CPU response straight from the surface's linear fit.
  opt.cpu_per_rps = std::max(context.model->cpu_fit().slope, 1e-9);
  opt.cpu_base = std::max(context.model->cpu_fit().intercept, 0.0);

  // Operating point: the per-server CPU where the surface's latency curve
  // crosses the SLO, found by scanning per-server load up to CPU
  // saturation (the quadratic is not monotone out-of-range, so scan).
  const double rps_at_saturation =
      (core::kSaturationCpuPct - opt.cpu_base) / opt.cpu_per_rps;
  double cpu_slo = core::kSaturationCpuPct;
  constexpr int kSteps = 512;
  for (int i = 1; i <= kSteps; ++i) {
    const double r = rps_at_saturation * static_cast<double>(i) /
                     static_cast<double>(kSteps);
    if (context.model->predict_latency_ms(r) > context.latency_slo_ms) {
      cpu_slo = context.model->predict_cpu_pct(
          rps_at_saturation * static_cast<double>(i - 1) /
          static_cast<double>(kSteps));
      break;
    }
  }
  const double span = std::max(cpu_slo - opt.cpu_base, 1.0);
  opt.cpu_slo_pct = cpu_slo;
  opt.target_cpu_pct = opt.cpu_base + kTargetFraction * span;
  opt.scale_out_threshold = opt.cpu_base + kScaleOutFraction * span;
  opt.scale_in_threshold = opt.cpu_base + kScaleInFraction * span;
  opt.min_servers = std::max<std::size_t>(1, context.min_servers);
  opt.max_servers = std::max(opt.min_servers, context.pool_size);
  reset(initial_serving, context.window_seconds);
}

void ReactiveAutoscaler::reset(std::size_t initial_serving,
                               telemetry::SimTime window_seconds) {
  window_seconds_ = window_seconds;
  decide_every_ = static_cast<std::size_t>(std::max<telemetry::SimTime>(
      1, options_.control_interval_s / window_seconds));
  index_ = 0;
  serving_ = initial_serving;
  committed_target_ = initial_serving;
  pending_.clear();
}

std::size_t ReactiveAutoscaler::plan_window(
    const core::PlannerWindow& window) {
  if (index_ % decide_every_ == 0) {
    const std::size_t target =
        decide(window.total_rps, window.cpu_pct, committed_target_);
    if (target != committed_target_) {
      const telemetry::SimTime lag = target > committed_target_
                                         ? options_.provision_lag_s
                                         : options_.drain_lag_s;
      const auto lag_windows = static_cast<std::size_t>(
          (lag + window_seconds_ - 1) / window_seconds_);
      pending_.emplace_back(index_ + 1 + lag_windows, target);
      committed_target_ = target;
    }
  }
  // Changes whose lag has elapsed start serving with the next window (which
  // this return value controls), oldest decision first.
  while (!pending_.empty() && pending_.front().first <= index_ + 1) {
    serving_ = pending_.front().second;
    pending_.pop_front();
  }
  ++index_;
  return serving_;
}

AutoscalerRun ReactiveAutoscaler::replay(
    const telemetry::TimeSeries& offered_rps,
    std::size_t initial_servers) const {
  AutoscalerRun run;
  if (offered_rps.empty()) return run;

  ReactiveAutoscaler loop(*this);
  std::size_t serving =
      std::clamp(initial_servers, options_.min_servers, options_.max_servers);
  loop.reset(serving, offered_rps.size() > 1
                          ? offered_rps.time_at(1) - offered_rps.time_at(0)
                          : options_.control_interval_s);

  for (std::size_t i = 0; i < offered_rps.size(); ++i) {
    const telemetry::SimTime t = offered_rps.time_at(i);
    const telemetry::SimTime dt =
        i + 1 < offered_rps.size()
            ? offered_rps.time_at(i + 1) - t
            : options_.control_interval_s;

    const double rps = offered_rps.value_at(i);
    const double per_server = rps / static_cast<double>(serving);
    const double cpu = options_.cpu_base + options_.cpu_per_rps * per_server;

    AutoscalerSample s;
    s.t = t;
    s.offered_rps = rps;
    s.serving = serving;
    s.cpu_pct = cpu;
    s.slo_violated = cpu > options_.cpu_slo_pct;

    core::PlannerWindow window;
    window.start = t;
    window.seconds = dt;
    window.total_rps = rps;
    window.serving = static_cast<double>(serving);
    window.cpu_pct = cpu;
    const std::size_t next = loop.plan_window(window);
    s.target = loop.committed_target_;
    run.samples.push_back(s);

    run.server_seconds += static_cast<double>(serving) * static_cast<double>(dt);
    run.total_seconds += static_cast<double>(dt);
    if (s.slo_violated) run.violation_seconds += static_cast<double>(dt);
    run.peak_serving = std::max(run.peak_serving, serving);
    serving = next;
  }
  return run;
}

}  // namespace headroom::baseline
