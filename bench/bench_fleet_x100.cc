// Fleet-step throughput at 100x scale: the million-server stepping story.
//
// Steps the standard fleet at a 2M regional peak (~470k servers) with the
// large-fleet stepping controls on (quiescent dead band, per-server
// accounting off) and reports server-windows per second.
//
// Writes BENCH_fleet_x100.json and exits non-zero when the throughput
// floor is lost (the Release CI smoke).
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "sim/fleet.h"
#include "sim/microservice.h"
#include "sim/topology.h"

namespace {

using Clock = std::chrono::steady_clock;
using headroom::telemetry::SimTime;

constexpr SimTime kWindowSeconds = 120;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace headroom;
  bench::header("Fleet stepping at 100x",
                "acceptance: 100x fleet stepping >= 1M server-windows/s");

  const sim::MicroserviceCatalog catalog;
  sim::StandardFleetOptions options;
  options.regional_peak_rps = 2'000'000.0;  // 100x the standard sizing
  sim::FleetConfig config = sim::standard_fleet(catalog, options);
  config.quiescent_dead_band = 0.02;
  config.per_server_accounting = false;
  const auto build0 = Clock::now();
  sim::FleetSimulator fleet(std::move(config), catalog);
  const double build_s = seconds_since(build0);

  constexpr SimTime kStepHorizon = 4 * 3600;  // 120 windows
  const auto step0 = Clock::now();
  fleet.run_until(kStepHorizon);
  const double step_s = seconds_since(step0);
  const double windows = static_cast<double>(kStepHorizon / kWindowSeconds);
  const double server_windows =
      static_cast<double>(fleet.total_servers()) * windows;
  const double throughput = server_windows / step_s;
  std::printf("  100x fleet: %zu servers / %zu pools, build %.2f s, "
              "%.0f windows in %.2f s -> %.1f M server-windows/s\n",
              fleet.total_servers(), fleet.total_pools(), build_s, windows,
              step_s, throughput / 1e6);

  // --- Machine-readable record ---------------------------------------------
  bench::JsonObject fleet_json;
  fleet_json.num("servers", fleet.total_servers())
      .num("pools", fleet.total_pools())
      .num("build_seconds", build_s)
      .num("windows", static_cast<std::size_t>(windows))
      .num("step_seconds", step_s)
      .num("server_windows_per_s", throughput);
  bench::JsonObject json;
  json.str("bench", "fleet_x100").obj("fleet_100x", fleet_json);

  // The throughput floor sits ~30x under the measured dev-box number to
  // absorb slow CI runners.
  const bool throughput_margin = throughput >= 1e6;
  json.boolean("throughput_margin", throughput_margin);
  const bool acceptance = throughput_margin;
  json.boolean("acceptance", acceptance);
  if (json.write("BENCH_fleet_x100.json")) {
    bench::note("wrote BENCH_fleet_x100.json");
  } else {
    bench::note("WARNING: could not write BENCH_fleet_x100.json");
  }
  bench::note(acceptance ? "acceptance threshold met ✓"
                         : "acceptance threshold MISSED ✗");
  return acceptance ? 0 : 1;
}
