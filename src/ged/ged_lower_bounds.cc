#include "ged/ged_lower_bounds.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "ged/ged_scratch.h"

namespace lan {
namespace {

double LabelMultisetLowerBound(const PreparedGraph& p1,
                               const PreparedGraph& p2) {
  // Size of the label multisets' intersection, by merging the sorted
  // label lists.
  const std::vector<Label>& l1 = p1.sorted_labels;
  const std::vector<Label>& l2 = p2.sorted_labels;
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
      std::max<int64_t>(p1.num_nodes, p2.num_nodes) - common;
  const int64_t edge_lb = std::llabs(p1.num_edges - p2.num_edges);
  return static_cast<double>(node_lb + edge_lb);
}

double SizeLowerBound(const PreparedGraph& p1, const PreparedGraph& p2) {
  return static_cast<double>(std::abs(p1.num_nodes - p2.num_nodes) +
                             std::llabs(p1.num_edges - p2.num_edges));
}

double DegreeLowerBound(const PreparedGraph& p1, const PreparedGraph& p2) {
  // The descending degree sequences, the shorter one padded with zeros.
  const std::vector<int32_t>& d1 = p1.sorted_degrees;
  const std::vector<int32_t>& d2 = p2.sorted_degrees;
  const size_t common = std::min(d1.size(), d2.size());
  int64_t diff = 0;
  for (size_t i = 0; i < common; ++i) diff += std::abs(d1[i] - d2[i]);
  for (size_t i = common; i < d1.size(); ++i) diff += d1[i];
  for (size_t i = common; i < d2.size(); ++i) diff += d2[i];
  // Each edge operation changes exactly two endpoint degrees.
  const int64_t edge_lb = (diff + 1) / 2;
  const int64_t node_lb = std::abs(p1.num_nodes - p2.num_nodes);
  return static_cast<double>(node_lb + edge_lb);
}

}  // namespace

double BestLowerBound(const PreparedGraph& p1, const PreparedGraph& p2) {
  return std::max({LabelMultisetLowerBound(p1, p2), SizeLowerBound(p1, p2),
                   DegreeLowerBound(p1, p2)});
}

// The Graph-taking bounds derive the sorted facts on the fly, in the
// thread's scratch (so they allocate nothing when warm).

double LabelMultisetLowerBound(const Graph& g1, const Graph& g2) {
  GedScratch& s = ThreadGedScratch();
  PrepareSortedFacts(g1, &s.prepared1);
  PrepareSortedFacts(g2, &s.prepared2);
  return LabelMultisetLowerBound(s.prepared1, s.prepared2);
}

double SizeLowerBound(const Graph& g1, const Graph& g2) {
  return static_cast<double>(
      std::abs(g1.NumNodes() - g2.NumNodes()) +
      std::llabs(g1.NumEdges() - g2.NumEdges()));
}

double DegreeLowerBound(const Graph& g1, const Graph& g2) {
  GedScratch& s = ThreadGedScratch();
  PrepareSortedFacts(g1, &s.prepared1);
  PrepareSortedFacts(g2, &s.prepared2);
  return DegreeLowerBound(s.prepared1, s.prepared2);
}

double BestLowerBound(const Graph& g1, const Graph& g2) {
  GedScratch& s = ThreadGedScratch();
  PrepareSortedFacts(g1, &s.prepared1);
  PrepareSortedFacts(g2, &s.prepared2);
  return BestLowerBound(s.prepared1, s.prepared2);
}

}  // namespace lan
