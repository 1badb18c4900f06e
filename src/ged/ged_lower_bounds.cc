#include "ged/ged_lower_bounds.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "ged/ged_scratch.h"

namespace lan {

double LabelMultisetLowerBound(const Graph& g1, const Graph& g2) {
  // Size of the label multisets' intersection, by merging the sorted label
  // lists (scratch buffers, so the bound allocates nothing when warm).
  GedScratch& s = ThreadGedScratch();
  std::vector<int32_t>& l1 = s.lb_values1;
  std::vector<int32_t>& l2 = s.lb_values2;
  l1.assign(g1.labels().begin(), g1.labels().end());
  l2.assign(g2.labels().begin(), g2.labels().end());
  std::sort(l1.begin(), l1.end());
  std::sort(l2.begin(), l2.end());
  int64_t common = 0;
  for (size_t i = 0, j = 0; i < l1.size() && j < l2.size();) {
    if (l1[i] < l2[j]) {
      ++i;
    } else if (l2[j] < l1[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  const int64_t node_lb =
      std::max<int64_t>(g1.NumNodes(), g2.NumNodes()) - common;
  const int64_t edge_lb = std::llabs(g1.NumEdges() - g2.NumEdges());
  return static_cast<double>(node_lb + edge_lb);
}

double SizeLowerBound(const Graph& g1, const Graph& g2) {
  return static_cast<double>(
      std::abs(g1.NumNodes() - g2.NumNodes()) +
      std::llabs(g1.NumEdges() - g2.NumEdges()));
}

double DegreeLowerBound(const Graph& g1, const Graph& g2) {
  const size_t n = static_cast<size_t>(
      std::max(g1.NumNodes(), g2.NumNodes()));
  GedScratch& s = ThreadGedScratch();
  std::vector<int32_t>& d1 = s.lb_values1;
  std::vector<int32_t>& d2 = s.lb_values2;
  d1.assign(n, 0);
  d2.assign(n, 0);
  for (NodeId v = 0; v < g1.NumNodes(); ++v) d1[static_cast<size_t>(v)] = g1.Degree(v);
  for (NodeId v = 0; v < g2.NumNodes(); ++v) d2[static_cast<size_t>(v)] = g2.Degree(v);
  std::sort(d1.rbegin(), d1.rend());
  std::sort(d2.rbegin(), d2.rend());
  int64_t diff = 0;
  for (size_t i = 0; i < n; ++i) diff += std::abs(d1[i] - d2[i]);
  // Each edge operation changes exactly two endpoint degrees.
  const int64_t edge_lb = (diff + 1) / 2;
  const int64_t node_lb = std::abs(g1.NumNodes() - g2.NumNodes());
  return static_cast<double>(node_lb + edge_lb);
}

double BestLowerBound(const Graph& g1, const Graph& g2) {
  return std::max({LabelMultisetLowerBound(g1, g2), SizeLowerBound(g1, g2),
                   DegreeLowerBound(g1, g2)});
}

}  // namespace lan
