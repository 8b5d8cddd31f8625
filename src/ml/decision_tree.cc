#include "ml/decision_tree.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace headroom::ml {

namespace {

/// Gini decrease required to split.
constexpr double kMinImpurityDecrease = 1e-9;

double gini(std::size_t positives, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(positives) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

struct SplitCandidate {
  bool valid = false;
  std::size_t feature = 0;
  double threshold = 0.0;
  double impurity_decrease = 0.0;
  // Row indices going to each side; filled lazily at apply time.
};

// Best axis-aligned split of `rows` by exhaustive threshold scan.
SplitCandidate find_best_split(const Dataset& data, std::span<const std::uint8_t> labels,
                               const std::vector<std::size_t>& rows,
                               std::size_t min_leaf_size) {
  SplitCandidate best;
  const std::size_t n = rows.size();
  if (n < 2 * min_leaf_size) return best;

  std::size_t total_pos = 0;
  for (std::size_t r : rows) total_pos += labels[r] ? 1u : 0u;
  const double parent_impurity =
      static_cast<double>(n) * gini(total_pos, n);
  if (total_pos == 0 || total_pos == n) return best;  // already pure

  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < data.cols(); ++f) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return data.at(a, f) < data.at(b, f);
    });
    std::size_t left_pos = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_pos += labels[sorted[i]] ? 1u : 0u;
      const double v = data.at(sorted[i], f);
      const double next = data.at(sorted[i + 1], f);
      if (v == next) continue;  // can't split between equal values
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < min_leaf_size || nr < min_leaf_size) continue;
      const double child_impurity =
          static_cast<double>(nl) * gini(left_pos, nl) +
          static_cast<double>(nr) * gini(total_pos - left_pos, nr);
      const double decrease = parent_impurity - child_impurity;
      if (decrease > best.impurity_decrease) {
        best.valid = true;
        best.feature = f;
        best.threshold = (v + next) / 2.0;
        best.impurity_decrease = decrease;
      }
    }
  }
  return best;
}

}  // namespace

void DecisionTree::fit(const Dataset& data, std::span<const std::uint8_t> labels,
                       const DecisionTreeOptions& options) {
  if (data.rows() != labels.size()) {
    throw std::invalid_argument("DecisionTree::fit: label count mismatch");
  }
  if (data.rows() == 0) throw std::invalid_argument("DecisionTree::fit: empty data");
  nodes_.clear();

  // Per-node row sets, kept only during fitting (indices parallel nodes_).
  std::vector<std::vector<std::size_t>> node_rows;

  auto make_node = [&](std::vector<std::size_t> rows, std::size_t level) {
    Node node;
    node.level = level;
    node.samples = rows.size();
    std::size_t pos = 0;
    for (std::size_t r : rows) pos += labels[r] ? 1u : 0u;
    node.probability = rows.empty()
                           ? 0.0
                           : static_cast<double>(pos) / static_cast<double>(rows.size());
    nodes_.push_back(node);
    node_rows.push_back(std::move(rows));
    return nodes_.size() - 1;
  };

  std::vector<std::size_t> all(data.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  make_node(std::move(all), 0);

  struct HeapEntry {
    double decrease;
    std::size_t node;
    SplitCandidate split;
    bool operator<(const HeapEntry& o) const { return decrease < o.decrease; }
  };
  std::priority_queue<HeapEntry> frontier;

  auto consider = [&](std::size_t node_id) {
    if (nodes_[node_id].level >= options.max_depth) return;
    SplitCandidate split = find_best_split(data, labels, node_rows[node_id],
                                           options.min_leaf_size);
    if (split.valid && split.impurity_decrease >= kMinImpurityDecrease) {
      frontier.push({split.impurity_decrease, node_id, split});
    }
  };
  consider(0);

  std::size_t splits_done = 0;
  while (!frontier.empty()) {
    if (options.max_splits != 0 && splits_done >= options.max_splits) break;
    const HeapEntry entry = frontier.top();
    frontier.pop();

    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (std::size_t r : node_rows[entry.node]) {
      if (data.at(r, entry.split.feature) <= entry.split.threshold) {
        left_rows.push_back(r);
      } else {
        right_rows.push_back(r);
      }
    }
    const std::size_t level = nodes_[entry.node].level + 1;
    const std::size_t li = make_node(std::move(left_rows), level);
    const std::size_t ri = make_node(std::move(right_rows), level);
    Node& parent = nodes_[entry.node];
    parent.is_leaf = false;
    parent.feature = entry.split.feature;
    parent.threshold = entry.split.threshold;
    parent.left = li;
    parent.right = ri;
    node_rows[entry.node].clear();
    ++splits_done;
    consider(li);
    consider(ri);
  }
}

std::size_t DecisionTree::leaf_for(std::span<const double> features) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not trained");
  std::size_t i = 0;
  while (!nodes_[i].is_leaf) {
    const Node& n = nodes_[i];
    if (n.feature >= features.size()) {
      throw std::invalid_argument("DecisionTree: feature vector too short");
    }
    i = features[n.feature] <= n.threshold ? n.left : n.right;
  }
  return i;
}

double DecisionTree::predict_proba(std::span<const double> features) const {
  return nodes_[leaf_for(features)].probability;
}

bool DecisionTree::predict(std::span<const double> features) const {
  return predict_proba(features) >= 0.5;
}

std::size_t DecisionTree::split_count() const noexcept {
  std::size_t c = 0;
  for (const Node& n : nodes_) c += n.is_leaf ? 0u : 1u;
  return c;
}

std::size_t DecisionTree::depth() const noexcept {
  std::size_t d = 0;
  for (const Node& n : nodes_) d = std::max(d, n.level);
  return d;
}

std::string DecisionTree::to_string(const Dataset& data) const {
  std::ostringstream os;
  // Depth-first rendering with explicit stack; (node, indent).
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [i, indent] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[i];
    os << std::string(indent * 2, ' ');
    if (n.is_leaf) {
      os << "leaf p=" << n.probability << " n=" << n.samples << "\n";
    } else {
      os << data.feature_name(n.feature) << " <= " << n.threshold << " (n="
         << n.samples << ")\n";
      stack.emplace_back(n.right, indent + 1);
      stack.emplace_back(n.left, indent + 1);
    }
  }
  return os.str();
}

}  // namespace headroom::ml
