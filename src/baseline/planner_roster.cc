#include "baseline/planner_roster.h"

#include "baseline/prediction_scaling.h"
#include "baseline/queueing_planner.h"
#include "baseline/reactive_autoscaler.h"
#include "baseline/right_sizing.h"
#include "baseline/throughput_probing.h"

namespace headroom::baseline {

std::vector<std::unique_ptr<core::CapacityPlanner>> default_roster() {
  std::vector<std::unique_ptr<core::CapacityPlanner>> roster;
  roster.push_back(std::make_unique<QueueingPlanner>());
  roster.push_back(std::make_unique<ReactiveAutoscaler>());
  roster.push_back(std::make_unique<PredictionScalingPlanner>());
  roster.push_back(std::make_unique<RightSizingPlanner>());
  roster.push_back(std::make_unique<ThroughputProbingPlanner>());
  return roster;
}

}  // namespace headroom::baseline
