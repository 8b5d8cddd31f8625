// The bake-off roster: every baseline policy as a core::CapacityPlanner
// with its default options, in fixed frontier order. Each entrant derives
// whatever it needs to know about the pool from the planner context in
// start(): the queueing model calibrates its service-time belief from the
// surface's warm floor, and the reactive autoscaler takes its CPU model
// and thresholds from the surface's fits.
#pragma once

#include <memory>
#include <vector>

#include "core/capacity_planner.h"

namespace headroom::baseline {

/// The five baseline entrants in fixed frontier order: queueing, reactive,
/// prediction_ml, right_sizing, probing. The harness prepends the RSM
/// entrant itself.
[[nodiscard]] std::vector<std::unique_ptr<core::CapacityPlanner>>
default_roster();

}  // namespace headroom::baseline
