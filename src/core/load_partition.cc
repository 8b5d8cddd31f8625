#include "core/load_partition.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace headroom::core {

// RANSAC settings of the per-partition Eq. 1 fit.
constexpr std::size_t kMinPointsPerFit = 8;
constexpr double kRansacThresholdMs = 2.0;
constexpr std::size_t kRansacIterations = 200;
constexpr std::uint64_t kRansacSeed = 77;

std::vector<LoadPartition> partition_by_load(std::span<const double> total_load,
                                             std::size_t count) {
  if (count == 0) {
    throw std::invalid_argument("partition_by_load: count must be positive");
  }
  std::vector<std::size_t> order(total_load.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return total_load[a] < total_load[b];
  });

  std::vector<LoadPartition> out;
  if (order.empty()) return out;
  const std::size_t n = order.size();
  const std::size_t per = std::max<std::size_t>(1, n / count);
  std::size_t i = 0;
  while (i < n) {
    LoadPartition p;
    const std::size_t end =
        (out.size() + 1 == count) ? n : std::min(n, i + per);
    p.load_lo = total_load[order[i]];
    p.load_hi = total_load[order[end - 1]];
    for (std::size_t j = i; j < end; ++j) p.indices.push_back(order[j]);
    out.push_back(std::move(p));
    i = end;
    if (out.size() == count) break;
  }
  // Leftovers (when n not divisible): append to the last partition.
  for (; i < n; ++i) {
    out.back().indices.push_back(order[i]);
    out.back().load_hi = std::max(out.back().load_hi, total_load[order[i]]);
  }
  return out;
}

ServerCountLatencyModel ServerCountLatencyModel::fit(
    std::span<const double> total_load, std::span<const double> servers,
    std::span<const double> latency_ms,
    const ServerCountModelOptions& options) {
  if (total_load.size() != servers.size() ||
      total_load.size() != latency_ms.size()) {
    throw std::invalid_argument("ServerCountLatencyModel::fit: size mismatch");
  }
  ServerCountLatencyModel model;
  for (LoadPartition& p : partition_by_load(total_load, options.partitions)) {
    PartitionModel pm;
    std::vector<double> xs;
    std::vector<double> ys;
    xs.reserve(p.indices.size());
    ys.reserve(p.indices.size());
    for (std::size_t idx : p.indices) {
      xs.push_back(servers[idx]);
      ys.push_back(latency_ms[idx]);
    }
    pm.partition = std::move(p);
    if (xs.size() >= kMinPointsPerFit) {
      // Early experiment history may contain only one or two distinct
      // server counts; degrade the quadratic to the highest degree the
      // data supports rather than refusing to model at all.
      std::vector<double> distinct = xs;
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      const std::size_t degree = std::min<std::size_t>(2, distinct.size() - 1);
      if (degree >= 1) {
        stats::RansacOptions ropt;
        ropt.degree = degree;
        ropt.iterations = kRansacIterations;
        ropt.inlier_threshold = kRansacThresholdMs;
        ropt.seed = kRansacSeed;
        pm.fit = stats::fit_ransac(xs, ys, ropt).fit;
        pm.usable = pm.fit.coeffs.size() >= 2;
      }
    }
    model.models_.push_back(std::move(pm));
  }
  return model;
}

const PartitionModel* ServerCountLatencyModel::partition_for(
    double total_load) const {
  const PartitionModel* best = nullptr;
  for (const PartitionModel& pm : models_) {
    if (!pm.usable) continue;
    if (best == nullptr) best = &pm;
    if (total_load >= pm.partition.load_lo) best = &pm;
    if (total_load <= pm.partition.load_hi) break;
  }
  return best;
}

std::optional<double> ServerCountLatencyModel::predict_latency_ms(
    double total_load, double servers) const {
  const PartitionModel* pm = partition_for(total_load);
  if (pm == nullptr) return std::nullopt;
  return pm->fit.predict(servers);
}

std::optional<std::size_t> ServerCountLatencyModel::min_servers_for_slo(
    double total_load, double latency_slo_ms,
    std::size_t current_servers) const {
  if (current_servers == 0) return std::nullopt;
  const auto current = predict_latency_ms(total_load,
                                          static_cast<double>(current_servers));
  if (!current || *current > latency_slo_ms) return std::nullopt;
  // Latency rises monotonically as servers shrink within the fitted range;
  // scan downward (counts are small enough that linear scan is fine and
  // robust to non-monotone quadratic tails).
  std::size_t best = current_servers;
  for (std::size_t n = current_servers; n >= 1; --n) {
    const auto predicted = predict_latency_ms(total_load, static_cast<double>(n));
    if (!predicted || *predicted > latency_slo_ms) break;
    best = n;
  }
  return best;
}

}  // namespace headroom::core
