#include "core/server_grouper.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace headroom::core {

constexpr std::size_t kMaxGroups = 3;
/// Additionally require every pair of cluster centroids to be at least this
/// many within-cluster RMS radii apart. Guards against slicing one elongated
/// cluster in half (which can still score a decent silhouette).
constexpr double kMinSeparation = 3.0;
/// Practical-significance floor: clusters whose centroids differ by less
/// than this many CPU percentage points are one planning group no matter
/// how statistically separable they are (capacity is planned in whole
/// servers; sub-percent CPU distinctions don't change any decision).
constexpr double kMinCentroidDistancePct = 2.0;
constexpr std::uint64_t kSeed = 23;

GroupingFeatures features_from_snapshot(
    const telemetry::PercentileSnapshot& snapshot) {
  GroupingFeatures f;
  f.p5 = snapshot.p5;
  f.p25 = snapshot.p25;
  f.p50 = snapshot.p50;
  f.p75 = snapshot.p75;
  f.p95 = snapshot.p95;
  const double ranks[] = {5.0, 25.0, 50.0, 75.0, 95.0};
  const double values[] = {f.p5, f.p25, f.p50, f.p75, f.p95};
  const stats::LinearFit fit = stats::fit_linear(ranks, values);
  f.slope = fit.slope;
  f.intercept = fit.intercept;
  f.r_squared = fit.r_squared;
  return f;
}

ServerGrouper::ServerGrouper(GrouperOptions options) : options_(options) {}

PoolGrouping ServerGrouper::group_servers(
    std::span<const telemetry::PercentileSnapshot> server_cpu) const {
  PoolGrouping result;
  result.assignment.assign(server_cpu.size(), 0);
  if (server_cpu.size() < 4) return result;  // too small to split

  ml::Dataset data({"p5", "p95"});
  for (const telemetry::PercentileSnapshot& s : server_cpu) {
    data.add_row({s.p5, s.p95});
  }

  const std::size_t k =
      ml::choose_k(data, kMaxGroups, options_.min_silhouette, kSeed);
  if (k <= 1) return result;

  ml::KMeansOptions opt;
  opt.k = k;
  opt.seed = kSeed;
  const ml::KMeansResult km = ml::kmeans(data, opt);

  // Separation gate: centroids must stand well apart relative to the
  // within-cluster scatter, or the "clusters" are just one population cut
  // in half.
  const double within_rms = std::sqrt(
      km.inertia / static_cast<double>(std::max<std::size_t>(1, data.rows())));
  double min_centroid_distance = std::numeric_limits<double>::max();
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      double d2 = 0.0;
      for (std::size_t f = 0; f < km.centroids[a].size(); ++f) {
        const double d = km.centroids[a][f] - km.centroids[b][f];
        d2 += d * d;
      }
      min_centroid_distance = std::min(min_centroid_distance, std::sqrt(d2));
    }
  }
  if (within_rms > 0.0 &&
      min_centroid_distance < kMinSeparation * within_rms) {
    return result;  // stay uni-modal
  }
  if (min_centroid_distance < kMinCentroidDistancePct) {
    return result;  // statistically real, practically irrelevant
  }

  result.group_count = k;
  result.assignment = km.assignment;
  result.silhouette = ml::silhouette_score(data, km.assignment, k);
  return result;
}

std::vector<telemetry::PercentileSnapshot> ServerGrouper::pool_snapshots(
    std::span<const sim::ServerDayCpu> days, std::uint32_t datacenter,
    std::uint32_t pool, std::int64_t day) {
  std::vector<telemetry::PercentileSnapshot> out;
  for (const sim::ServerDayCpu& d : days) {
    if (d.datacenter == datacenter && d.pool == pool && d.day == day) {
      out.push_back(d.cpu);
    }
  }
  return out;
}

ml::Dataset ServerGrouper::feature_dataset(
    std::span<const GroupingFeatures> features) {
  ml::Dataset data(GroupingFeatures::names());
  for (const GroupingFeatures& f : features) data.add_row(f.as_row());
  return data;
}

}  // namespace headroom::core
