// Step 1 (Measure): capacity-planning server groups.
//
// Pools are nominally uniform, but hardware refreshes and role asymmetries
// (replica primaries, extra tasks) create sub-populations with different
// workload→CPU responses. The paper finds groups two ways and so do we:
//  - scatter clustering on each server's (P5, P95) daily CPU (Fig. 3), and
//  - a decision tree over per-pool feature vectors — the {5,25,50,75,95}th
//    CPU percentiles plus slope/intercept/R² of a linear fit across those
//    percentiles — predicting whether a pool is "tightly bound" (§II-A2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kmeans.h"
#include "sim/fleet.h"
#include "stats/linear_model.h"
#include "telemetry/percentile_digest.h"

namespace headroom::core {

/// Per-server (or per-pool, when aggregated) grouping feature vector.
struct GroupingFeatures {
  double p5 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double slope = 0.0;      ///< Of CPU value vs percentile rank.
  double intercept = 0.0;
  double r_squared = 0.0;

  [[nodiscard]] std::vector<double> as_row() const {
    return {p5, p25, p50, p75, p95, slope, intercept, r_squared};
  }
  [[nodiscard]] static std::vector<std::string> names() {
    return {"p5", "p25", "p50", "p75", "p95", "slope", "intercept", "r2"};
  }
};

/// Builds the feature vector from a percentile snapshot (the slope /
/// intercept / R² come from regressing value on percentile rank, per the
/// paper's feature definition).
[[nodiscard]] GroupingFeatures features_from_snapshot(
    const telemetry::PercentileSnapshot& snapshot);

struct PoolGrouping {
  std::size_t group_count = 1;
  std::vector<std::size_t> assignment;  ///< Group id per input server.
  double silhouette = 0.0;
  /// True when the pool splits into >1 planning group (e.g. two hardware
  /// generations) and capacity must be planned per group.
  [[nodiscard]] bool multimodal() const noexcept { return group_count > 1; }
};

struct GrouperOptions {
  std::size_t max_groups = 3;
  /// Minimum silhouette for accepting a multi-group split; below this the
  /// pool is treated as one group.
  double min_silhouette = 0.55;
  /// Additionally require every pair of cluster centroids to be at least
  /// this many within-cluster RMS radii apart. Guards against slicing one
  /// elongated cluster in half (which can still score a decent
  /// silhouette).
  double min_separation = 3.0;
  /// Practical-significance floor: clusters whose centroids differ by less
  /// than this many CPU percentage points are one planning group no matter
  /// how statistically separable they are (capacity is planned in whole
  /// servers; sub-percent CPU distinctions don't change any decision).
  double min_centroid_distance_pct = 2.0;
  std::uint64_t seed = 23;
};

class ServerGrouper {
 public:
  explicit ServerGrouper(GrouperOptions options = {});

  /// Clusters one pool's servers on their (P5, P95) daily CPU — the Fig. 3
  /// scatter — and decides whether the pool needs sub-group planning.
  [[nodiscard]] PoolGrouping group_servers(
      std::span<const telemetry::PercentileSnapshot> server_cpu) const;

  /// Convenience: extracts one pool's latest-day snapshots from fleet
  /// simulator output.
  [[nodiscard]] static std::vector<telemetry::PercentileSnapshot> pool_snapshots(
      std::span<const sim::ServerDayCpu> days, std::uint32_t datacenter,
      std::uint32_t pool, std::int64_t day);

  /// Builds the decision-tree dataset from per-pool feature vectors.
  [[nodiscard]] static ml::Dataset feature_dataset(
      std::span<const GroupingFeatures> features);

 private:
  GrouperOptions options_;
};

}  // namespace headroom::core
