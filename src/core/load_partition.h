// Total-workload partitioning (the {r_idj} partitions of paper §II-B2).
//
// "Since the total workload for a micro-service is distributed equally
// across all servers in the pool, the total workload is used to partition
// historical time points when the pool's servers had comparable loads."
// Within each partition, latency is modeled as a quadratic in the *server
// count* (Eq. 1) — the RSM experiments' control variable.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "stats/polynomial.h"
#include "stats/ransac.h"

namespace headroom::core {

/// One total-load partition: a contiguous load range plus the indices of
/// the observations that fall inside it.
struct LoadPartition {
  double load_lo = 0.0;
  double load_hi = 0.0;
  std::vector<std::size_t> indices;
};

/// Splits observations into `count` equal-population (quantile) partitions
/// by total load. Partitions are ordered by load.
[[nodiscard]] std::vector<LoadPartition> partition_by_load(
    std::span<const double> total_load, std::size_t count);

/// Eq. 1 of the paper, per partition j:
///   latency ~= a2 * n² + a1 * n + a0       (n = server count)
/// estimated with RANSAC over the observations in that partition.
struct PartitionModel {
  LoadPartition partition;
  stats::PolynomialFit fit;   ///< In server count n.
  bool usable = false;        ///< Enough observations to trust the fit.
};

struct ServerCountModelOptions {
  std::size_t partitions = 4;
};

/// The family of per-partition latency-vs-server-count fits.
class ServerCountLatencyModel {
 public:
  /// `total_load[i]`, `servers[i]`, `latency_ms[i]` are simultaneous
  /// observations (same telemetry window).
  [[nodiscard]] static ServerCountLatencyModel fit(
      std::span<const double> total_load, std::span<const double> servers,
      std::span<const double> latency_ms,
      const ServerCountModelOptions& options = {});

  /// Predicted latency when serving `total_load` with `servers` servers;
  /// uses the partition containing the load (clamped to the extremes).
  /// nullopt when no partition has a usable fit.
  [[nodiscard]] std::optional<double> predict_latency_ms(double total_load,
                                                         double servers) const;

  /// Minimal server count meeting `latency_slo_ms` at `total_load`,
  /// searched over [1, current_servers]. nullopt when the model is unusable
  /// or even current_servers violates the SLO.
  [[nodiscard]] std::optional<std::size_t> min_servers_for_slo(
      double total_load, double latency_slo_ms,
      std::size_t current_servers) const;

  [[nodiscard]] const std::vector<PartitionModel>& partitions() const noexcept {
    return models_;
  }

 private:
  [[nodiscard]] const PartitionModel* partition_for(double total_load) const;

  std::vector<PartitionModel> models_;
};

}  // namespace headroom::core
