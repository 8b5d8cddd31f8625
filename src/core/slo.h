// Service Level Objectives.
//
// "The QoS requirement for each micro-service is defined as a set of
// Service Level Objectives (SLOs). Each SLO is a specific metric and the
// minimum threshold of their values." (paper §II). In this library QoS is
// the SLO the planners size against: a P95 latency ceiling.
#pragma once

namespace headroom::core {

struct LatencySlo {
  double p95_ms = 100.0;  ///< e.g. "response latency must be < 500 ms".
};

struct QosRequirement {
  LatencySlo latency;
};

}  // namespace headroom::core
