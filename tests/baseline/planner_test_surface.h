// Shared fixture for the bake-off planner tests: a synthetic response
// surface with closed-form inverses, so expected serving counts are exact.
#pragma once

#include <cstddef>

#include "core/capacity_planner.h"
#include "core/pool_model.h"

namespace headroom::baseline::planner_test {

// latency(r) = 5 + 0.0005 r^2 ms, cpu(r) = 0.08 r + 2 %. With the 50 ms
// SLO and the planners' default 1 ms margin, per-server load must stay at
// or below sqrt(44 / 0.0005) ~= 296.6 rps: 900 total rps needs 4 servers,
// 1800 needs 7, 100 needs 1. `warm_floor_ms` replaces the 5 ms intercept.
inline core::PoolResponseModel test_surface(double warm_floor_ms = 5.0) {
  stats::LinearFit cpu;
  cpu.slope = 0.08;
  cpu.intercept = 2.0;
  cpu.r_squared = 1.0;
  cpu.n = 100;
  stats::PolynomialFit latency;
  latency.coeffs = {warm_floor_ms, 0.0, 0.0005};
  latency.r_squared = 1.0;
  latency.n = 100;
  return core::PoolResponseModel::from_fits(cpu, latency);
}

inline core::PlannerContext test_context(const core::PoolResponseModel* model,
                                         std::size_t pool_size = 32) {
  core::PlannerContext ctx;
  ctx.model = model;
  ctx.latency_slo_ms = 50.0;
  ctx.pool_size = pool_size;
  ctx.min_servers = 1;
  ctx.window_seconds = 120;
  return ctx;
}

inline core::PlannerWindow make_window(std::size_t index, double total_rps,
                                       double latency_ms = 0.0,
                                       double cpu_pct = 0.0) {
  core::PlannerWindow w;
  w.start = static_cast<telemetry::SimTime>(index) * 120;
  w.seconds = 120;
  w.total_rps = total_rps;
  w.latency_p95_ms = latency_ms;
  w.cpu_pct = cpu_pct;
  return w;
}

}  // namespace headroom::baseline::planner_test
