// CART binary decision tree with probability leaves.
//
// Reproduces the paper's server-group classifier (§II-A2): a tree trained
// on per-server/pool feature vectors — CPU utilization percentiles plus the
// slope/intercept/R² of a linear fit across those percentiles — predicting
// whether a pool is "tightly bound" (predictable workload→CPU response).
// The paper's tree had 34 splits, R² = 0.746 on the predicted probability,
// and AUC = 0.9804; options below expose the same knobs (minimum leaf size
// of 2000 machines, split budget).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace headroom::ml {

struct DecisionTreeOptions {
  std::size_t max_depth = 16;
  std::size_t min_leaf_size = 1;        ///< Paper uses 2000 machines.
  std::size_t max_splits = 0;           ///< 0 = unlimited; paper's tree: 34.
};

/// Binary CART classifier (Gini impurity, axis-aligned threshold splits).
class DecisionTree {
 public:
  /// Fits the tree. `labels[i]` is the class of `data.row(i)`.
  /// Splits are grown best-first so a `max_splits` budget keeps the most
  /// informative splits (matching how a pruned production tree looks).
  void fit(const Dataset& data, std::span<const std::uint8_t> labels,
           const DecisionTreeOptions& options = {});

  /// Probability that the row is in the positive class (leaf frequency).
  [[nodiscard]] double predict_proba(std::span<const double> features) const;
  /// predict_proba >= 0.5.
  [[nodiscard]] bool predict(std::span<const double> features) const;

  [[nodiscard]] bool trained() const noexcept { return !nodes_.empty(); }
  /// Number of internal (split) nodes.
  [[nodiscard]] std::size_t split_count() const noexcept;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t depth() const noexcept;

  /// Human-readable rendering for debugging/reporting.
  [[nodiscard]] std::string to_string(const Dataset& data) const;

 private:
  struct Node {
    bool is_leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    double probability = 0.0;  ///< Positive-class frequency in this node.
    std::size_t samples = 0;
    std::size_t left = 0;   ///< Child indices (valid when !is_leaf).
    std::size_t right = 0;
    std::size_t level = 0;
  };

  [[nodiscard]] std::size_t leaf_for(std::span<const double> features) const;

  std::vector<Node> nodes_;
};

}  // namespace headroom::ml
