#include "baseline/queueing_planner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baseline/queueing.h"

namespace headroom::baseline {

namespace {

/// Exponential P95 is -ln(0.05) ~= 3.0 service times; the warm-latency
/// floor (the latency fit's zero-load value) read backwards through that
/// relationship is the queueing model's "measured" service time.
constexpr double kExpP95Factor = 2.9957322735539909;

}  // namespace

QueueingPlanner::QueueingPlanner(QueueingPlannerOptions options)
    : options_(options) {
  if (options_.service_time_ms <= 0.0 || options_.concurrency_per_server <= 0.0) {
    throw std::invalid_argument("QueueingPlanner: bad options");
  }
  if (options_.max_utilization <= 0.0 || options_.max_utilization > 1.0) {
    throw std::invalid_argument(
        "QueueingPlanner: max_utilization must be in (0, 1]");
  }
}

void QueueingPlanner::start(const core::PlannerContext& context,
                            std::size_t /*initial_serving*/) {
  if (context.model == nullptr) {
    throw std::invalid_argument("QueueingPlanner::start: null response model");
  }
  slo_ = core::LatencySlo{context.latency_slo_ms};
  peak_rps_ = 0.0;
  // The planner's stale belief, fixed at start: the floor includes
  // cold-start and constant overheads the M/M/c structure does not model,
  // which is the mis-sizing the bake-off is designed to expose.
  const double belief = context.model->predict_latency_ms(0.0) / kExpP95Factor;
  // Keep the belief satisfiable: a service P95 above the SLO would make
  // every plan() search run off to infinity.
  const double ceiling = context.latency_slo_ms * 0.9 / kExpP95Factor;
  options_.service_time_ms = std::clamp(belief, 0.1, std::max(0.1, ceiling));
}

std::size_t QueueingPlanner::plan_window(const core::PlannerWindow& window) {
  peak_rps_ = std::max(peak_rps_, window.total_rps);
  if (peak_rps_ <= 0.0) {
    return static_cast<std::size_t>(window.serving);
  }
  return plan(peak_rps_, slo_).servers;
}

std::size_t QueueingPlanner::effective_servers(std::size_t servers) const {
  // The M/M/c formulas need an integer c; truncation is the one lossy step,
  // so it happens here and *only* here — plan()'s utilization floor and
  // predict_p95_latency_ms() must agree on the logical server count or the
  // search can start below the real floor (returning over-utilized plans)
  // with fractional concurrency_per_server.
  return static_cast<std::size_t>(static_cast<double>(servers) *
                                  options_.concurrency_per_server);
}

double QueueingPlanner::predict_p95_latency_ms(double total_rps,
                                               std::size_t servers) const {
  if (servers == 0) throw std::invalid_argument("predict: no servers");
  // Treat the pool as M/M/c with c = servers * concurrency logical servers.
  const double mu = 1000.0 / options_.service_time_ms;  // per logical server
  return mm_c_p95_sojourn_s(total_rps, mu, effective_servers(servers)) * 1000.0;
}

QueueingPlan QueueingPlanner::plan(double peak_rps,
                                   const core::LatencySlo& slo) const {
  if (peak_rps <= 0.0) throw std::invalid_argument("plan: peak must be positive");
  const double mu = 1000.0 / options_.service_time_ms;
  // Utilization floor on *effective* (truncated) logical servers:
  // lambda <= max_util * c_eff * mu. The smallest admissible integer c_eff,
  // then the smallest physical server count whose truncated product reaches
  // it — the same c_eff computation predict_p95_latency_ms() evaluates.
  const auto min_logical = static_cast<std::size_t>(
      std::ceil(peak_rps / (options_.max_utilization * mu)));
  auto servers = static_cast<std::size_t>(std::max(
      1.0, std::ceil(static_cast<double>(min_logical) /
                     options_.concurrency_per_server)));
  while (effective_servers(servers) < min_logical) ++servers;

  QueueingPlan result;
  constexpr std::size_t kMaxServers = 1u << 20;
  while (servers < kMaxServers) {
    const double p95 = predict_p95_latency_ms(peak_rps, servers);
    if (p95 <= slo.p95_ms) {
      result.servers = servers;
      result.predicted_p95_latency_ms = p95;
      result.utilization =
          peak_rps / (static_cast<double>(effective_servers(servers)) * mu);
      return result;
    }
    ++servers;
  }
  throw std::runtime_error("QueueingPlanner::plan: SLO unsatisfiable");
}

}  // namespace headroom::baseline
